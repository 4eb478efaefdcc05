"""Recursive decomposition of Fibonacci graph expressions.

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

from .expr import ExprError, Expression, UNIT, ZERO, _term_table, product, sumof
from .graph import InvalidN, _check_n


class InvalidVertexChoice(ExprError):
    """A strategy produced a decomposition vertex outside its interval."""


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


def decompose(n: int, strategy: Strategy | None = None) -> Expression:
    """Binary decomposition expression of the n-vertex graph.

    Equal intervals share one subexpression node, so the returned tree is a
    DAG; printed size still matches the method's term count.
    """
    _check_n(n)
    strategy = strategy if strategy is not None else MiddleLow()
    memo: dict[tuple, Expression] = {}
    term = _term_table()

    def e(p: int, q: int) -> Expression:
        if q == p:
            return UNIT
        if q == p + 1:
            return term("a", p)
        key = (p, q)
        cached = memo.get(key)
        if cached is not None:
            return cached
        i = strategy.choose(p, q)
        if not (p < i < q):
            raise InvalidVertexChoice(f"strategy chose i={i} for interval ({p},{q})")
        res = sumof([
            product([e(p, i), e(i, q)]),
            product([e(p, i - 1), term("b", i - 1), e(i + 1, q)]),
        ])
        memo[key] = res
        return res

    return e(1, n)


def uniform_positions(p: int, q: int, m: int) -> list[int]:
    """Decomposition vertices splitting (p, q) into min(m, q-p) near-equal
    parts; ties round down so m=2 matches the MiddleLow strategy."""
    span = q - p
    if span < 1 or m < 2:
        raise InvalidVertexChoice(f"no positions for interval ({p},{q}) with m={m}")
    parts = min(m, span)
    pos = [p + (2 * j * span + parts - 1) // (2 * parts) for j in range(1, parts)]
    for k in range(1, len(pos)):  # guard rounding collisions
        if pos[k] <= pos[k - 1]:
            pos[k] = pos[k - 1] + 1
    return pos


@dataclass
class GdSpec:
    """Parts per recursive step, optionally with explicit first-step vertices
    (the recursion below the first step always places uniformly)."""

    m: int
    first_positions: tuple | None = None


def decompose_gd(n: int, spec: GdSpec) -> Expression:
    """Generalized decomposition expression of the n-vertex graph."""
    _check_n(n)
    if spec.m < 2:
        raise InvalidM(f"need m >= 2, got {spec.m}")
    memo: dict[tuple, Expression] = {}
    term = _term_table()

    def e(p: int, q: int) -> Expression:
        if q < p:
            return ZERO
        if q == p:
            return UNIT
        if q == p + 1:
            return term("a", p)
        key = (p, q)
        cached = memo.get(key)
        if cached is not None:
            return cached

        if (p, q) == (1, n) and spec.first_positions is not None:
            vs = list(spec.first_positions)
            if not all(p < i < q for i in vs) or sorted(set(vs)) != vs:
                raise InvalidVertexChoice(
                    f"first-step vertices {vs} invalid for interval ({p},{q})")
        else:
            vs = uniform_positions(p, q, spec.m)

        k = len(vs)
        summands = []
        for subset in range(2 ** k):  # binary-counter order, no bypass first
            bypassed = [(subset >> j) & 1 == 1 for j in range(k)]
            factors = []
            for j in range(k + 1):
                left = p if j == 0 else (vs[j - 1] + 1 if bypassed[j - 1] else vs[j - 1])
                right = q if j == k else (vs[j] - 1 if bypassed[j] else vs[j])
                factors.append(e(left, right))
                if j < k and bypassed[j]:
                    factors.append(term("b", vs[j] - 1))
            summands.append(product(factors))
        res = sumof(summands)
        memo[key] = res
        return res

    return e(1, n)
