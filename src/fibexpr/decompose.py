"""Decomposition of Fibonacci graph expressions.

The binary procedure splits an interval (p, q) at a decomposition vertex i:

    E(p,q) = E(p,i) E(i,q) + E(p,i-1) b_{i-1} E(i+1,q)

with E(x,x) = 1 and E(x,x+1) = a_x.  The generalized (GD) form splits each
interval at m-1 vertices and sums over all 2^{m-1} bypass subsets; a
bypassed vertex i contributes the factor b_{i-1} and shifts its segment
boundaries inward, and an inverted segment E(x, x-1) is zero, which kills
exactly the impossible consecutive-bypass summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Mapping, Union

from .expr import (DEFAULT_EXPANSION_BOUND, ExprError, Expression, SizeExceeded, Term, UNIT,
                   _check_int, _edge_labels, _hand_over, _make_group)
from .graph import _check_n


# Summands over all intervals of one build.  decompose(100000) has 1.54 M and
# peaks at 212 MB RSS in 1.1 s (CPython 3.11, 2-vCPU VM): 0.6 GB at the bound.
_BUILD_SUMMAND_BOUND = 4 * DEFAULT_EXPANSION_BOUND


class InvalidVertexChoice(ExprError):
    """A strategy or first-step list gave no vertices for an interval, or
    vertices that are not increasing ints strictly inside it."""


class InvalidM(ExprError):
    """GD part count that is not an int of at least 2."""


@dataclass(frozen=True)
class MiddleLow:
    """Middle vertex, lower of the two middles for even-length intervals."""

    def choose(self, p: int, q: int) -> int:
        return (p + q) // 2


@dataclass(frozen=True)
class MiddleHigh:
    """Middle vertex, upper of the two middles for even-length intervals."""

    def choose(self, p: int, q: int) -> int:
        return (p + q + 1) // 2


@dataclass(frozen=True)
class Leftmost:
    """Always splits at p+1; exponentially bad, kept as a negative control."""

    def choose(self, p: int, q: int) -> int:
        return p + 1


@dataclass
class FixedMap:
    """Explicit vertices for selected intervals, a fallback strategy elsewhere."""

    mapping: Mapping[tuple, int]
    fallback: "Strategy" = field(default_factory=MiddleLow)

    def choose(self, p: int, q: int) -> int:
        i = self.mapping.get((p, q))
        return i if i is not None else self.fallback.choose(p, q)


_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class Seeded:
    """Pseudo-random but reproducible: the vertex depends only on (seed, p, q).

    One splitmix64 round mixes seed + (p << 32 | q) times the golden-ratio
    constant, and multiply-shift maps its 64 bits onto p+1 .. q-1.  It is
    integer arithmetic only, so the tree depends on no hash seed, platform
    or Python version.  Seeds equal modulo 2^64 give the same tree.
    """

    seed: int

    def __post_init__(self):
        if type(self.seed) is not int:
            raise ExprError(f"need an integer seed, got {self.seed!r}")

    def choose(self, p: int, q: int) -> int:
        # q < 2^32 for every n a build allows, so (p, q) packs without overlap.
        x = (self.seed + (p << 32 | q) * 0x9E3779B97F4A7C15) & _M64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _M64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _M64
        return p + 1 + ((x ^ x >> 31) * (q - p - 1) >> 64)


Strategy = Union[MiddleLow, MiddleHigh, Leftmost, FixedMap, Seeded]


def uniform_positions(p: int, q: int, m: int) -> list[int]:
    """Decomposition vertices splitting (p, q) into min(m, q-p) near-equal
    parts; ties round down so m=2 matches the MiddleLow strategy."""
    span = q - p
    if span < 1 or type(m) is not int or m < 2:
        raise InvalidVertexChoice(f"no positions for interval ({p},{q}) with m={m}")
    parts = min(m, span)
    return [p + (2 * j * span + parts - 1) // (2 * parts) for j in range(1, parts)]


@dataclass
class GdSpec:
    """Parts per recursive step, optionally with explicit first-step vertices
    (the recursion below the first step always places uniformly)."""

    m: int
    first_positions: tuple | None = None


def _segment(x: int, r: int) -> tuple:
    """The factors of E(p+x, p+r) as references (k, y) to slots: to slot
    p+y (k = 0, a label), or to the slot of E(p+y, p+y+k).  The unit E(x, x)
    is no factor, a_{p+x} is at slot p+x+1, and b_{p+v-1} is (0, n+v-1)."""
    return () if r == x else ((0, x + 1),) if r == x + 1 else ((r - x, x),)


def _build(n: int, split, by_length: bool = False) -> Expression:
    """E(1, n) with each interval (p, q), q-p >= 2, split at the increasing
    vertices split(p, q) strictly inside it.  With by_length, the offsets
    v-p of split(p, q) depend on q-p alone, so split is called once per
    length, for the first interval found.

    Vertices are kept or bypassed in turn, last first, each partial summand
    carrying the end r of the segment open on its left; bypassing v needs
    v < r, as E(v+1, v) = 0, so only surviving summands are made.  Keep goes
    before bypass, which gives the recursive GD form's order: the binary
    counter over bypass subsets, first vertex lowest.

    A summand's factors depend only on q-p and the split offsets v-p, so
    intervals go in templates, one per (length, offsets), each holding the
    starts p of its intervals.  Discovery goes longest length first, when a
    length's intervals are all known, and groups them by their offsets
    (one group per length with by_length); it checks each template, counts
    its summands and finds its child intervals once.  An interval of more than DEFAULT_EXPANSION_BOUND
    summands, or a build of more than _BUILD_SUMMAND_BOUND over all its
    intervals, is refused there, before any summand is enumerated or
    planned.  Construction goes shortest length first and runs the
    keep/bypass pass once per template over slot references (see _segment):
    each gives one column of slots over the template's starts.
    Each length plans all its Products, then all its Sums, grouped by arity,
    one node per row of columns (_make_group).  Only the slot plan is made;
    it is handed over with the root, whose nodes are made from it when first
    read (_hand_over).
    """
    # Every build has at least n-1 summands, so a larger n is refused before
    # the 2n-3 labels are made.  An interval split at k vertices has at
    # least k+1 summands: the one that keeps them all, and for each vertex
    # the one that bypasses it alone.  The keep-all summands split (1, n)
    # into a tree of intervals whose leaves are the n-1 edges a_v; any two
    # of its intervals are nested or do not overlap, so all are distinct,
    # and each holds at least as many summands as it has parts.  The parts
    # of all the tree's intervals are its nodes but the root, at least its
    # n-1 leaves.
    if n - 1 > _BUILD_SUMMAND_BOUND:
        raise SizeExceeded(f"a build of at least {n - 1} summands exceeds bound "
                           f"{_BUILD_SUMMAND_BOUND}")
    labels = _edge_labels(n)
    if n < 3:
        return Term(labels[0]) if n == 2 else UNIT
    starts: list = [set() for _ in range(n)]  # starts[k]: p of each E(p, p+k) found
    starts[n - 1].add(1)
    templates: list[list] = [[] for _ in range(n)]  # templates[k]: (offsets, starts)
    total = 0  # summands of the intervals found so far
    for length in range(n - 1, 1, -1):
        found: dict[tuple, list] = {}  # offsets -> the starts p split at them
        for p in starts[length]:
            vertices = split(p, p + length)
            try:  # a str vertex fails here, a float below
                offsets = tuple(map(sub, vertices, repeat(p)))
            except TypeError:
                raise InvalidVertexChoice(f"vertices {vertices!r} invalid for interval "
                                          f"({p},{p + length})") from None
            if by_length:  # every interval of this length is split alike
                found[offsets] = [*starts[length]]
                break
            found.setdefault(offsets, []).append(p)
        starts[length] = None
        for offsets, ps in found.items():
            p, q = ps[0], ps[0] + length
            if not offsets:
                raise InvalidVertexChoice(f"no vertices for interval ({p},{q})")
            segments = set()  # (x, r) of each E(p+x, p+r) a summand can hold
            u, kept, bypassed = 0, 1, 0  # summands so far that keep or bypass u
            for v in offsets:
                if type(v) is not int or not u < v < length:
                    raise InvalidVertexChoice(
                        f"vertices {[p + o for o in offsets]} invalid for interval ({p},{q})")
                segments.update(((u, v), (u, v - 1)))
                if 0 < u < v - 1:  # a segment starts at u+1 after bypassing u
                    segments.update(((u + 1, v), (u + 1, v - 1)))
                kept, bypassed = kept + bypassed, kept + bypassed if u + 1 < v else kept
                u = v
            segments.update(((u, length), (u + 1, length)))
            if kept + bypassed > DEFAULT_EXPANSION_BOUND:
                raise SizeExceeded(f"{kept + bypassed} summands in interval ({p},{q}) exceeds "
                                   f"bound {DEFAULT_EXPANSION_BOUND}")
            total += (kept + bypassed) * len(ps)
            if total > _BUILD_SUMMAND_BOUND:
                raise SizeExceeded(f"a build of at least {total} summands exceeds bound "
                                   f"{_BUILD_SUMMAND_BOUND}")
            for x, r in segments:
                if r - x > 1:
                    starts[r - x].update(map(add, ps, repeat(x)))
            templates[length].append((offsets, ps))
    top = 2 + len(labels)  # the next free slot: a_x is at x+1, b_x at n+x
    steps: list = []
    slot_of: list = [None] * n  # slot_of[k]: {p: slot of E(p, p+k)}
    for length in range(2, n):
        products: dict[int, list] = {}  # arity -> columns of each template's summand
        sums: dict[int, list] = {}  # arity -> (summand columns, starts) of each template
        for offsets, ps in templates[length]:
            tails = [((), length)]  # (factors right of the open segment, its end r)
            for v in reversed(offsets):
                bypass = ((0, n + v - 1),)  # b_{p+v-1}
                grown = []
                for fs, r in tails:
                    grown.append((_segment(v, r) + fs, v))
                    if v < r:  # E(v+1, r) is not the zero E(v+1, v)
                        grown.append((bypass + _segment(v + 1, r) + fs, v - 1))
                tails = grown
            tails = [_segment(0, r) + fs for fs, r in tails]
            columns: dict[tuple, list] = {}  # reference -> its slots over ps
            for k, x in set(chain.from_iterable(tails)):
                shifted = map(add, ps, repeat(x))
                columns[k, x] = [*map(slot_of[k].__getitem__, shifted)] if k else [*shifted]
            summands = []  # a column of slots, or (arity, index) of a product column
            for fs in tails:
                if len(fs) == 1:
                    summands.append(columns[fs[0]])
                else:
                    group = products.setdefault(len(fs), [])
                    summands.append((len(fs), len(group)))
                    group.append([*map(columns.__getitem__, fs)])
            sums.setdefault(len(summands), []).append((summands, ps))
        placed = {}  # arity -> the slots of each product column, in order
        for arity, group in products.items():
            placed[arity] = _make_group(top, steps, mul, group)
            top = placed[arity][-1].stop
        slot_of[length] = at = {}
        for group in sums.values():
            parts = [[s if isinstance(s, list) else placed[s[0]][s[1]] for s in summands]
                     for summands, ps in group]
            slots = _make_group(top, steps, add, parts)
            top = slots[-1].stop
            for (summands, ps), part in zip(group, slots):
                at.update(zip(ps, part))
    return _hand_over(labels, steps)


def decompose(n: int, strategy: Strategy | None = None) -> Expression:
    """Binary decomposition expression of the n-vertex graph: the generalized
    one with the single vertex strategy.choose(p, q) per interval.

    Equal intervals share one subexpression node, so the returned tree is a
    DAG; printed size still matches the method's term count.
    """
    _check_n(n)
    strategy = strategy if strategy is not None else MiddleLow()
    # these three choose p plus an offset that depends on q-p alone
    by_length = type(strategy) in (MiddleLow, MiddleHigh, Leftmost)
    return _build(n, lambda p, q: (strategy.choose(p, q),), by_length)


def decompose_gd(n: int, spec: GdSpec) -> Expression:
    """Generalized decomposition expression of the n-vertex graph."""
    _check_n(n)
    _check_int(spec.m, 2, "m", InvalidM)

    def split(p: int, q: int):
        if (p, q) == (1, n) and spec.first_positions is not None:
            return spec.first_positions
        return uniform_positions(p, q, spec.m)

    # uniform offsets depend on q-p alone, and (1, n) is alone at its length
    return _build(n, split, by_length=True)
