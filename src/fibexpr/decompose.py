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

import random
from dataclasses import dataclass, field
from typing import Mapping, Union

from .expr import (DEFAULT_EXPANSION_BOUND, ExprError, Expression, Product, SizeExceeded,
                   Sum, UNIT, _hand_over, _term_table)
from .graph import _check_n


# Summands over all intervals of one build.  decompose(100000) has 1.54 M
# and peaks near 0.7 GB, so a build at the bound needs about 2 GB.
_BUILD_SUMMAND_BOUND = 4 * DEFAULT_EXPANSION_BOUND


class InvalidVertexChoice(ExprError):
    """A strategy or first-step list gave no vertices for an interval, or
    vertices that are not increasing and strictly inside it."""


class InvalidM(ExprError):
    """GD part count below 2."""


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


@dataclass(frozen=True)
class Seeded:
    """Pseudo-random but reproducible: the vertex depends only on (seed, p, q)."""

    seed: int

    def choose(self, p: int, q: int) -> int:
        return random.Random(f"{self.seed}:{p}:{q}").randrange(p + 1, q)


Strategy = Union[MiddleLow, MiddleHigh, Leftmost, FixedMap, Seeded]


def uniform_positions(p: int, q: int, m: int) -> list[int]:
    """Decomposition vertices splitting (p, q) into min(m, q-p) near-equal
    parts; ties round down so m=2 matches the MiddleLow strategy."""
    span = q - p
    if span < 1 or m < 2:
        raise InvalidVertexChoice(f"no positions for interval ({p},{q}) with m={m}")
    parts = min(m, span)
    return [p + (2 * j * span + parts - 1) // (2 * parts) for j in range(1, parts)]


@dataclass
class GdSpec:
    """Parts per recursive step, optionally with explicit first-step vertices
    (the recursion below the first step always places uniformly)."""

    m: int
    first_positions: tuple | None = None


def _build(n: int, split) -> Expression:
    """E(1, n) with each interval (p, q), q-p >= 2, split at the increasing
    vertices split(p, q) strictly inside it.

    Vertices are kept or bypassed in turn, last first, each partial summand
    carrying the end r of the segment open on its left; bypassing v needs
    v < r, as E(v+1, v) = 0, so only surviving summands are made.  Keep goes
    before bypass, which gives the recursive GD form's order: the binary
    counter over bypass subsets, first vertex lowest.  An interval of more
    than DEFAULT_EXPANSION_BOUND summands, or a build of more than
    _BUILD_SUMMAND_BOUND over all its intervals, is refused before any node
    is made.
    Intervals are found with an explicit stack and built shortest first, so
    no depth limit applies.  Each interval maps to the tuple of its factors,
    () for E(x, x) = 1, so joining tuples multiplies without units; no factor
    is a Product and no summand a Sum, so nodes come out as product and sumof
    would return them.  Each length makes all its Products, then all its
    Sums, grouped by arity: a group's internal children are all in earlier
    groups, so the groups are handed over with the root for _plan, and
    flattened they are its _order.
    """
    term = _term_table()
    factors: dict[tuple, tuple | None] = {(x, x): () for x in range(1, n + 1)}
    factors.update(((x, x + 1), (term("a", x),)) for x in range(1, n))
    bypass = {v: (term("b", v - 1),) for v in range(2, n)}
    by_length: list[list] = [[] for _ in range(n)]  # (p, q, vertices) to build
    made: list = []  # every Sum and Product, children first
    total = 0  # summands of the intervals found so far
    todo = [(1, n)]
    while todo:
        key = todo.pop()
        if key in factors:
            continue
        factors[key] = None  # found, built below
        p, q = key
        vs = tuple(split(p, q))
        if not vs:
            raise InvalidVertexChoice(f"no vertices for interval ({p},{q})")
        by_length[q - p].append((p, q, vs))
        u, kept, bypassed = p, 1, 0  # summands so far that keep or bypass u
        for v in vs:
            if not u < v < q:
                raise InvalidVertexChoice(f"vertices {list(vs)} invalid for interval ({p},{q})")
            todo += (u, v), (u, v - 1)
            if p < u < v - 1:  # a segment starts at u+1 after bypassing u
                todo += (u + 1, v), (u + 1, v - 1)
            kept, bypassed = kept + bypassed, kept + bypassed if u + 1 < v else kept
            u = v
        if kept + bypassed > DEFAULT_EXPANSION_BOUND:
            raise SizeExceeded(f"{kept + bypassed} summands in interval ({p},{q}) exceeds bound "
                               f"{DEFAULT_EXPANSION_BOUND}")
        total += kept + bypassed
        if total > _BUILD_SUMMAND_BOUND:
            raise SizeExceeded(f"a build of at least {total} summands exceeds bound "
                               f"{_BUILD_SUMMAND_BOUND}")
        todo += (u, q), (u + 1, q)
    groups: list[list] = []  # nodes of one kind and arity, children in earlier groups
    for found in by_length:
        products: dict[int, list] = {}  # arity -> this length's Products
        sums: dict[int, list] = {}
        made = []  # (interval, summands) of this length
        for p, q, vs in found:
            tails = [((), q)]  # (factors right of the open segment, its end r)
            for v in reversed(vs):
                grown = []
                for fs, r in tails:
                    grown.append((factors[v, r] + fs, v))
                    if v < r:  # E(v+1, r) is not the zero E(v+1, v)
                        grown.append((bypass[v] + factors[v + 1, r] + fs, v - 1))
                tails = grown
            summands = []
            for fs, r in tails:
                fs = factors[p, r] + fs
                if len(fs) == 1:
                    summands.append(fs[0])
                else:
                    summands.append(Product(fs))
                    products.setdefault(len(fs), []).append(summands[-1])
            made.append(((p, q), summands))
        for key, summands in made:
            factors[key] = (Sum(tuple(summands)),)
            sums.setdefault(len(summands), []).append(factors[key][0])
        groups += products.values()
        groups += sums.values()
    if n < 3:
        return factors[1, n][0] if n > 1 else UNIT
    return _hand_over(groups.pop()[0], groups)  # the last group is the root alone


def decompose(n: int, strategy: Strategy | None = None) -> Expression:
    """Binary decomposition expression of the n-vertex graph: the generalized
    one with the single vertex strategy.choose(p, q) per interval.

    Equal intervals share one subexpression node, so the returned tree is a
    DAG; printed size still matches the method's term count.
    """
    _check_n(n)
    strategy = strategy if strategy is not None else MiddleLow()
    return _build(n, lambda p, q: (strategy.choose(p, q),))


def decompose_gd(n: int, spec: GdSpec) -> Expression:
    """Generalized decomposition expression of the n-vertex graph."""
    _check_n(n)
    if spec.m < 2:
        raise InvalidM(f"need m >= 2, got {spec.m}")

    def split(p: int, q: int):
        if (p, q) == (1, n) and spec.first_positions is not None:
            return spec.first_positions
        return uniform_positions(p, q, spec.m)

    return _build(n, split)
