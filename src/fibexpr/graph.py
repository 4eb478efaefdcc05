"""Fibonacci graph model: edges, paths, the canonical (sequential paths)
expression, a linear-time modular path-polynomial oracle, and verify.

The n-vertex Fibonacci graph has vertices 1..n, edges a_v = (v, v+1) for
v < n and b_v = (v, v+2) for v < n-1.  Everything is determined by n, so
graphs are passed around as a bare integer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Sequence

from .expr import (
    Assignment,
    DEFAULT_EXPANSION_BOUND,
    DEFAULT_PRIME,
    DuplicateMonomial,
    Expression,
    ExprError,
    Label,
    SizeExceeded,
    UnassignedLabel,
    _add_steps,
    _as_batch,
    _check_int,
    _edge_labels,
    _hand_over,
    _values,
    evaluate_mod,
    expand,
)


class InvalidN(ExprError):
    """Vertex count outside the operation's domain."""


class InvalidSampling(ExprError):
    """Trial count or modulus that leaves the sampling bound meaningless."""


def _check_n(n: int, minimum: int = 1):
    _check_int(n, minimum, "n", InvalidN)


def edges(n: int) -> list[Label]:
    """All edge labels of the n-vertex graph: a1..a_{n-1} then b1..b_{n-2}."""
    _check_n(n)
    return list(_edge_labels(n))


def _path_count(n: int, bound: float) -> int:
    """N(n) by N(1) = N(2) = 1, N(n) = N(n-1) + N(n-2), raising
    SizeExceeded as soon as a count passes bound."""
    prev, cur = 1, 1
    for _ in range(n - 2):
        prev, cur = cur, prev + cur
        if cur > bound:
            raise SizeExceeded(f"n={n}: the number of paths exceeds bound {bound}")
    return cur


def path_count(n: int) -> int:
    """Number of source-to-sink paths: N(1)=N(2)=1, N(n)=N(n-1)+N(n-2)."""
    _check_n(n)
    return _path_count(n, float("inf"))


def _paths(n: int) -> list[tuple]:
    """Every path as the indices of its edges in _edge_labels(n) (a_v is
    v-1, b_v is n+v-2), source to sink, by one suffix recurrence:
    P(v) = [a_v + p for p in P(v+1)] + [b_v + p for p in P(v+2)], P(n) = [()],
    P(n+1) = [].  The a-step comes first, so the paths come in lexicographic
    order of vertex sequences.  They are counted against
    DEFAULT_EXPANSION_BOUND first."""
    _check_n(n)
    _path_count(n, DEFAULT_EXPANSION_BOUND)
    after, here = [], [()]  # P(v+2), P(v+1)
    for v in range(n - 1, 0, -1):
        after, here = here, [*map((v - 1,).__add__, here), *map((n + v - 2,).__add__, after)]
    return here


def enumerate_paths(n: int) -> list[frozenset]:
    """All source-to-sink paths as label sets, ordered lexicographically by
    vertex sequence (the a-step is tried before the b-step)."""
    paths = _paths(n)
    label = _edge_labels(n).__getitem__
    return [frozenset(map(label, path)) for path in paths]


def path_vertex_sequences(n: int) -> list[tuple]:
    """Vertex sequences of all paths, in the same order as enumerate_paths."""
    paths = _paths(n)
    head = [*range(2, n + 1), *range(3, n + 1)].__getitem__  # by edge index
    return [(1, *map(head, path)) for path in paths]


def canonical_expression(n: int) -> Expression:
    """Sequential-paths expression: the sum over all paths of the product of
    their edge labels, labels in source-to-sink order.  The path products
    are planned by arity, one node per row of label slots, then their Sum,
    and only the slot plan is made and handed over with the root (_hand_over)."""
    _check_n(n, minimum=2)
    paths = _paths(n)
    labels = _edge_labels(n)  # edge index k at slot k+2
    by_arity: dict[int, list] = {}
    for k, path in enumerate(paths):
        if len(path) > 1:
            by_arity.setdefault(len(path), []).append(k)
    summands = [path[0] + 2 for path in paths]  # slot of each path's summand
    steps: list = []
    top = 2 + len(labels)  # the next free slot
    for ks in by_arity.values():
        columns = [[*map(add, column, repeat(2))] for column in zip(*map(paths.__getitem__, ks))]
        slots = _add_steps(steps, mul, columns, top)
        top = slots.stop
        for k, at in zip(ks, slots):
            summands[k] = at
    if len(paths) > 1:
        _add_steps(steps, add, [*zip(summands)], top)  # one Sum, one column per path
    return _hand_over(labels, steps)


def oracle_eval_mod(n: int, v: Assignment | Sequence[Assignment]):
    """Path polynomial value via the two-step recurrence
    V(k) = a_{k-1} V(k-1) + b_{k-2} V(k-2), without building any expression.

    Like evaluate_mod, v is one Assignment (giving an int) or a sequence of
    Assignments sharing one prime (giving one residue per point)."""
    _check_n(n)
    points = _as_batch(v)
    labels = _edge_labels(n)
    out = []
    for pt in points:
        p, vals = pt.prime, _values(pt, labels)  # a_1..a_{n-1}, then b_1..b_{n-2}
        prev, cur = 1, (vals[0] if n > 1 else 1) % p  # V(1), V(2)
        for ak, bk in zip(vals[1:n - 1], vals[n - 1:]):
            prev, cur = cur, (ak * cur + bk * prev) % p
        out.append(cur)
    return out[0] if isinstance(v, Assignment) else out


# Bases that make Miller-Rabin exact below 3.18 * 10^23, well past 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for m < 2^64
    (and well beyond); a strong probable-prime test above that."""
    if m < 2:
        return False
    for q in _WITNESSES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _WITNESSES:
        x = pow(q, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_sampling(n: int, trials: int, prime: int) -> float:
    """Raise InvalidSampling unless `trials` >= 1 and `prime` is a prime
    above n.  Points come from the prime-1 values 1..prime-1, so a nonzero
    difference of degree at most n-1 vanishes at one with probability at
    most (n-1)/(prime-1), which is below 1 only for a prime above n.  Returns
    log10 of the bound ((n-1)/(prime-1))^trials, -inf at n = 1."""
    _check_int(trials, 1, "trials", InvalidSampling)
    if type(prime) is not int or prime <= n or not is_prime(prime):
        raise InvalidSampling(f"modulus must be a prime greater than n = {n}, got {prime!r}")
    return trials * math.log10((n - 1) / (prime - 1)) if n > 1 else -math.inf


def _scientific(exponent: float) -> str:
    """10^exponent as "1.1e-212" ("0" for -inf), never forming the power."""
    if exponent == -math.inf:
        return "0"
    whole = math.floor(exponent)
    mantissa, carry = f"{10 ** (exponent - whole):.1e}".split("e")  # carry: 9.96 -> 1.0e+01
    return f"{mantissa}e{whole + int(carry)}"


def false_pass_bound(n: int, trials: int, prime: int) -> str:
    """The bound ((n-1)/(prime-1))^trials of check_sampling, as "1.1e-212"."""
    return _scientific(check_sampling(n, trials, prime))


@dataclass(frozen=True)
class Verdict:
    """What verify found; str() is the line `fibexpr verify` prints.  "expand" sets
    monomials and reason, "modeval" trials, prime and log10_bound (check_sampling)."""

    equivalent: bool
    mode: str
    reason: str = ""
    monomials: int | None = None
    trials: int | None = None
    prime: int | None = None
    log10_bound: float | None = None

    def __str__(self) -> str:
        if self.mode == "expand":
            detail = f"{self.monomials} monomials" + (f"; {self.reason}" if self.reason else "")
        else:
            detail = f"{self.trials} modular trials" + (
                f", false-pass bound {_scientific(self.log10_bound)}" if self.equivalent else "")
        return f"{'' if self.equivalent else 'NOT '}EQUIVALENT ({detail})"


def verify(e: Expression, n: int, mode: str = "expand", *, trials: int = 32,
           prime: int | None = None, seed: int = 0) -> Verdict:
    """Check e against the path polynomial f of the n-vertex graph: "expand"
    compares e's monomials with the paths (enumerated first, so too many raise
    SizeExceeded at once); "modeval" compares e with the oracle at `trials`
    points from `seed`, each checked as it is drawn (the first rejects almost
    any wrong e).  Its bound ((n-1)/(prime-1))^trials (see check_sampling)
    assumes deg(e - f) <= n-1, as in every builder root; a parsed formula can
    equal f modulo the prime without equalling it.  A monomial that arises
    twice, or a label off the graph, gives False."""
    if mode == "expand":
        paths = enumerate_paths(n)
        try:
            return Verdict(expand(e) == frozenset(paths), mode, monomials=len(paths))
        except DuplicateMonomial as exc:
            return Verdict(False, mode, str(exc), monomials=len(paths))
    if mode != "modeval":
        raise ExprError(f"unknown verification mode {mode!r}")
    prime = DEFAULT_PRIME if prime is None else prime
    rng, labs = random.Random(seed), edges(n)
    log10_bound = check_sampling(n, trials, prime)
    points = (Assignment.random(labs, prime, rng) for _ in range(trials))  # drawn lazily
    try:
        ok = all(evaluate_mod(e, pt) == oracle_eval_mod(n, pt) for pt in points)
    except UnassignedLabel:  # e uses an edge the graph does not have
        ok = False
    return Verdict(ok, mode, trials=trials, prime=prime, log10_bound=log10_bound)


def equivalent_by_expansion(e: Expression, n: int) -> bool:
    """verify(e, n).equivalent: False, not DuplicateMonomial, for a repeated monomial."""
    return verify(e, n).equivalent


def equivalent_by_sampling(e: Expression, n: int, trials: int = 32,
                           prime: int | None = None, seed: int = 0) -> bool:
    """verify(e, n, "modeval", ...).equivalent."""
    return verify(e, n, "modeval", trials=trials, prime=prime, seed=seed).equivalent
