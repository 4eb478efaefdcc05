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
from operator import add, lt, mul, sub
from typing import Mapping, Union

from .expr import (DEFAULT_EXPANSION_BOUND, ExprError, Expression, SizeExceeded, _add_steps,
                   _check_int, _edge_labels, _hand_over)
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
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_P = ((1 << 32) + 1) * _GOLDEN  # p's factor in (p << 32 | p + length) * _GOLDEN
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


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
        return self.choose_each([p], q - p)[0]

    def choose_each(self, ps: list, length: int) -> list:
        """The vertex of each interval (p, p + length), p in ps, one round
        at a time over the whole list.  q < 2^32 for every n a build
        allows, so p << 32 | q packs without overlap: p (2^32 + 1) + length."""
        start = self.seed + length * _GOLDEN
        xs = [(start + p * _GOLDEN_P) & _M64 for p in ps]
        xs = [(x ^ x >> 30) * _MIX1 & _M64 for x in xs]
        xs = [(x ^ x >> 27) * _MIX2 & _M64 for x in xs]
        return [p + 1 + ((x ^ x >> 31) * (length - 1) >> 64) for p, x in zip(ps, xs)]


Strategy = Union[MiddleLow, MiddleHigh, Leftmost, FixedMap, Seeded]


def uniform_positions(p: int, q: int, m: int) -> list[int]:
    """Decomposition vertices splitting (p, q) into min(m, q-p) near-equal
    parts; ties round down so m=2 matches the MiddleLow strategy."""
    _check_int(p, 1, "interval start", InvalidVertexChoice)
    _check_int(q, p + 1, "interval end", InvalidVertexChoice)
    _check_int(m, 2, "m", InvalidVertexChoice)
    span = q - p
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


def _check_build(total: int) -> int:
    """total, a count of summands that a build has at least, refused past
    _BUILD_SUMMAND_BOUND.  Each builder checks n-1 before it makes the 2n-3
    edge labels, then its running total after each length.

    Every build has at least n-1 summands.  An interval split at k vertices
    has at least k+1: the one that keeps them all, and for each vertex the
    one that bypasses it alone.  The keep-all summands split (1, n) into a
    tree of intervals whose leaves are the n-1 edges a_v; any two of its
    intervals are nested or do not overlap, so all are distinct, and each
    holds at least as many summands as it has parts.  The parts of all the
    tree's intervals are its nodes but the root, at least its n-1 leaves."""
    if total > _BUILD_SUMMAND_BOUND:
        raise SizeExceeded(f"a build of at least {total} summands exceeds bound "
                           f"{_BUILD_SUMMAND_BOUND}")
    return total


def _build(n: int, split) -> Expression:
    """E(1, n) with each interval (p, q), q-p >= 2, split at the increasing
    vertices split(p, q) strictly inside it, whose offsets v-p depend on
    q-p alone: split is called once per length, for one of its intervals.

    Vertices are kept or bypassed in turn, last first, each partial summand
    carrying the end r of the segment open on its left; bypassing v needs
    v < r, as E(v+1, v) = 0, so only surviving summands are made.  Keep goes
    before bypass, which gives the recursive GD form's order: the binary
    counter over bypass subsets, first vertex lowest.

    A summand's factors depend only on q-p and the split offsets, so each
    length is one template holding the starts p of its intervals.
    Discovery goes longest length first, when a length's intervals are all
    known; it checks each template, counts its summands and finds its child
    intervals once.  An interval of more than DEFAULT_EXPANSION_BOUND
    summands, or a build of more than _BUILD_SUMMAND_BOUND over all its
    intervals (_check_build), is refused there, before any summand is
    enumerated or planned.  Construction goes shortest length first and
    runs the keep/bypass pass once per template over slot references (see
    _segment): each gives one column of slots over the template's starts.
    Each length plans its Products, one step per arity over the factor
    columns of all its summands of that arity, then its Sums (_add_steps).
    Only the slot plan is made; it is handed over with the root, whose
    nodes are made from it when first read (_hand_over).
    """
    _check_build(n - 1)
    labels = _edge_labels(n)
    starts: list = [set() for _ in range(n)]  # starts[k]: p of each E(p, p+k) found
    starts[n - 1].add(1)
    found = []  # (length, offsets, starts), longest length first
    total = 0  # summands of the intervals found so far
    for length in range(n - 1, 1, -1):
        ps = [*starts[length]]
        starts[length] = None
        if not ps:
            continue
        p, q = ps[0], ps[0] + length
        vertices = split(p, q)
        try:  # a str vertex fails here, a float below
            offsets = tuple(map(sub, vertices, repeat(p)))
        except TypeError:
            raise InvalidVertexChoice(f"vertices {vertices!r} invalid for interval "
                                      f"({p},{q})") from None
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
        total = _check_build(total + (kept + bypassed) * len(ps))
        for x, r in segments:
            if r - x > 1:
                starts[r - x].update(map(add, ps, repeat(x)))
        found.append((length, offsets, ps))
    top = 2 + len(labels)  # the next free slot: a_x is at x+1, b_x at n+x
    steps: list = []
    slot_of: list = [None] * n  # slot_of[k]: {p: slot of E(p, p+k)}
    for length, offsets, ps in reversed(found):
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
        products: dict[int, list] = {}  # arity -> its columns, one summand's rows after another
        summands = []  # a column of slots, or (arity, first row) of a product
        for fs in tails:
            if len(fs) == 1:
                summands.append(columns[fs[0]])
            else:
                group = products.setdefault(len(fs), [[] for _ in fs])
                summands.append((len(fs), len(group[0])))
                for column, f in zip(group, fs):
                    column += columns[f]
        placed = {}  # arity -> the slots of its products, one summand's rows after another
        for arity, group in products.items():
            placed[arity] = _add_steps(steps, mul, group, top)
            top = placed[arity].stop
        parts = [s if isinstance(s, list) else placed[s[0]][s[1]:s[1] + len(ps)]
                 for s in summands]
        slots = _add_steps(steps, add, parts, top)
        top = slots.stop
        slot_of[length] = dict(zip(ps, slots))
    return _hand_over(labels, steps)


def _build_by_shape(n: int, choose_each) -> Expression:
    """E(1, n) with each interval (p, q), q-p >= 2, split at a vertex v of
    its own, E(p,q) = E(p,v) E(v,q) + E(p,v-1) b_{v-1} E(v+1,q), where
    choose_each(ps, k) lists the vertex of each interval (p, p+k), p in ps.

    Each pass works on a whole length at a time, in columns over its
    intervals, never on one interval.  Discovery goes longest length first,
    when a length's intervals are all known: it draws their vertices,
    refuses any that is not an int strictly inside its interval, counts the
    summands, two per interval, against _BUILD_SUMMAND_BOUND (_check_build),
    and files each split's p under v-p and its q under q-v, from which the
    shorter lengths read their intervals (the sets of lengths 0 and 1,
    units and labels, are never read).
    Everything is checked before any planning.  A split's shape, whether
    v-p and q-v exceed 1, decides which of E(p,v-1) and E(v+1,q) are units,
    and so the bypass summand's arity: 1 (b_{v-1} alone, no product), 2 or
    3; a length's intervals are sorted by shape.  Construction goes
    shortest length first.  Segment E(x, r) is looked up by the key
    x (n+1) + r, whose slot is a_x's for r = x+1 and its interval's Sum
    otherwise, so each column is one lookup over the length's intervals.
    A length plans one step of Products of two factors (every keep summand,
    then the bypass summands of one segment), one of the Products of three
    and one of its Sums (_add_steps).  Only the slot plan is made (_hand_over).
    """
    _check_build(n - 1)
    labels = _edge_labels(n)
    # A split at v adds E(p,v) and E(p,v-1), which start at p, and E(v,q)
    # and E(v+1,q), which end at q, as two pairs.
    lefts: list = [set() for _ in range(n + 1)]  # lefts[d]: p of each E(p,p+d), E(p,p+d-1)
    rights: list = [set() for _ in range(n + 1)]  # rights[e]: q of each E(q-e,q), E(q-e+1,q)
    found = []  # (length, starts, vertices, shape counts), longest length first
    total = 0  # summands of the intervals found so far
    for length in range(n - 1, 1, -1):
        ps = [1] if length == n - 1 else [*(lefts[length] | lefts[length + 1]).union(
            map(sub, rights[length] | rights[length + 1], repeat(length)))]
        lefts[length + 1] = rights[length + 1] = None
        if not ps:
            continue
        vs = choose_each(ps, length)
        qs = [p + length for p in ps]
        if {*map(type, vs)} != {int} or not all(map(lt, ps, vs)) or not all(map(lt, vs, qs)):
            p, v = next((p, v) for p, v in zip(ps, vs)
                        if type(v) is not int or not p < v < p + length)
            raise InvalidVertexChoice(f"vertices [{v!r}] invalid for interval ({p},{p + length})")
        total = _check_build(total + 2 * len(ps))
        ds = [*map(sub, vs, ps)]
        es = [*map(sub, qs, vs)]
        any(map(set.add, map(lefts.__getitem__, ds), ps))  # set.add gives None
        any(map(set.add, map(rights.__getitem__, es), qs))
        shapes = [2 * (d > 1) + (e > 1) for d, e in zip(ds, es)]
        order = sorted(range(len(ps)), key=shapes.__getitem__)
        found.append((length, [*map(ps.__getitem__, order)], [*map(vs.__getitem__, order)],
                      [*map(shapes.count, range(4))]))
    width = n + 1
    at = {x * width + x + 1: x + 1 for x in range(1, n)}  # key of E(x, r) -> slot; a_x at x+1
    get = at.__getitem__
    top = 2 + len(labels)  # the next free slot: a_x is at x+1, b_x at n+x
    steps: list = []
    for length, ps, vs, (alone, right, left, both) in reversed(found):
        # shapes 0..3: no segment, E(v+1,q) only, E(p,v-1) only, both
        one, two = alone + right, alone + right + left  # where shapes 2 and 3 start
        pv = [p * width + v for p, v in zip(ps, vs)]  # E(p,v); less one, E(p,v-1)
        vq = [v * width + p + length for p, v in zip(ps, vs)]  # E(v,q); plus n+1, E(v+1,q)
        bs = [n - 1 + v for v in vs]  # b_{v-1}
        pairs = _add_steps(steps, mul, [
            [*map(get, pv), *bs[alone:one], *map(get, map(sub, pv[one:two], repeat(1)))],
            [*map(get, vq), *map(get, map(add, vq[alone:one], repeat(width))), *bs[one:two]]],
            top)
        triples = range(pairs.stop, pairs.stop)
        if both:
            triples = _add_steps(steps, mul, [[*map(get, map(sub, pv[two:], repeat(1)))], bs[two:],
                                              [*map(get, map(add, vq[two:], repeat(width)))]],
                                 pairs.stop)
        sums = _add_steps(steps, add, [[*pairs[:len(ps)]], [*bs[:alone], *pairs[len(ps):],
                                                            *triples]], triples.stop)
        top = sums.stop
        at.update(zip([p * (width + 1) + length for p in ps], sums))
    return _hand_over(labels, steps)


def decompose(n: int, strategy: Strategy | None = None) -> Expression:
    """Binary decomposition expression of the n-vertex graph: the generalized
    one with the single vertex strategy.choose(p, q) per interval.

    Equal intervals share one subexpression node, so the returned tree is a
    DAG; printed size still matches the method's term count.
    """
    _check_n(n)
    strategy = strategy if strategy is not None else MiddleLow()
    if type(strategy) in (MiddleLow, MiddleHigh, Leftmost):  # an offset that depends on q-p alone
        return _build(n, lambda p, q: (strategy.choose(p, q),))
    if type(strategy) is Seeded:
        return _build_by_shape(n, strategy.choose_each)
    return _build_by_shape(n, lambda ps, k: [*map(strategy.choose, ps, map(add, ps, repeat(k)))])


def decompose_gd(n: int, spec: GdSpec) -> Expression:
    """Generalized decomposition expression of the n-vertex graph."""
    _check_n(n)
    _check_int(spec.m, 2, "m", InvalidM)

    def split(p: int, q: int):
        if (p, q) == (1, n) and spec.first_positions is not None:
            return spec.first_positions
        return uniform_positions(p, q, spec.m)

    # uniform offsets depend on q-p alone, and (1, n) is alone at its length
    return _build(n, split)
