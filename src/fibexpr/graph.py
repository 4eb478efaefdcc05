"""Fibonacci graph model: edges, path enumeration, the canonical (sequential
paths) expression, and a linear-time modular oracle for the path polynomial.

The n-vertex Fibonacci graph has vertices 1..n, edges a_v = (v, v+1) for
v < n and b_v = (v, v+2) for v < n-1.  Everything is determined by n, so
graphs are passed around as a bare integer.
"""

from __future__ import annotations

import random
from typing import Sequence

from .expr import (
    Assignment,
    DEFAULT_EXPANSION_BOUND,
    DEFAULT_PRIME,
    Expression,
    ExprError,
    Label,
    SizeExceeded,
    UnassignedLabel,
    _as_batch,
    _term_table,
    a,
    b,
    evaluate_mod,
    expand,
    product,
    sumof,
)


class InvalidN(ExprError):
    """Vertex count outside the operation's domain."""


class InvalidSampling(ExprError):
    """Trial count or modulus that leaves the sampling bound meaningless."""


def _check_n(n: int, minimum: int = 1):
    if not isinstance(n, int) or n < minimum:
        raise InvalidN(f"need an integer n >= {minimum}, got {n!r}")


def edges(n: int) -> list[Label]:
    """All edge labels of the n-vertex graph: a1..a_{n-1} then b1..b_{n-2}."""
    _check_n(n)
    return [a(v) for v in range(1, n)] + [b(v) for v in range(1, n - 1)]


def path_count(n: int) -> int:
    """Number of source-to-sink paths: N(1)=N(2)=1, N(n)=N(n-1)+N(n-2)."""
    _check_n(n)
    prev, cur = 1, 1
    for _ in range(n - 2):
        prev, cur = cur, prev + cur
    return cur


def enumerate_paths(n: int, max_paths: int = DEFAULT_EXPANSION_BOUND) -> list[frozenset]:
    """All source-to-sink paths as label sets, ordered lexicographically by
    vertex sequence (the a-step is tried before the b-step)."""
    _check_n(n)
    if path_count(n) > max_paths:
        raise SizeExceeded(f"{path_count(n)} paths exceeds bound {max_paths}")
    paths: list[frozenset] = []

    def walk(v: int, taken: list[Label]):
        if v == n:
            paths.append(frozenset(taken))
            return
        taken.append(a(v))
        walk(v + 1, taken)
        taken.pop()
        if v + 2 <= n:
            taken.append(b(v))
            walk(v + 2, taken)
            taken.pop()

    walk(1, [])
    return paths


def path_vertex_sequences(n: int, max_paths: int = DEFAULT_EXPANSION_BOUND) -> list[tuple]:
    """Vertex sequences of all paths, in the same order as enumerate_paths."""
    _check_n(n)
    if path_count(n) > max_paths:
        raise SizeExceeded(f"{path_count(n)} paths exceeds bound {max_paths}")
    out: list[tuple] = []

    def walk(v: int, seq: list[int]):
        seq.append(v)
        if v == n:
            out.append(tuple(seq))
        else:
            walk(v + 1, seq)
            if v + 2 <= n:
                walk(v + 2, seq)
        seq.pop()

    walk(1, [])
    return out


def canonical_expression(n: int, max_paths: int = DEFAULT_EXPANSION_BOUND) -> Expression:
    """Sequential-paths expression: the sum over all paths of the product of
    their edge labels, labels in source-to-sink order."""
    _check_n(n, minimum=2)
    term = _term_table()
    summands = []
    for seq in path_vertex_sequences(n, max_paths):
        summands.append(product(term("a" if w == v + 1 else "b", v)
                                for v, w in zip(seq, seq[1:])))
    return sumof(summands)


def oracle_eval_mod(n: int, v: Assignment | Sequence[Assignment]):
    """Path polynomial value via the two-step recurrence
    V(k) = a_{k-1} V(k-1) + b_{k-2} V(k-2), without building any expression.

    Like evaluate_mod, v is one Assignment (giving an int) or a sequence of
    Assignments sharing one prime (giving one residue per point)."""
    _check_n(n)
    points = _as_batch(v)
    a_labels = [a(k) for k in range(1, n)]
    b_labels = [b(k) for k in range(1, n - 1)]
    out = []
    for pt in points:
        p, values = pt.prime, pt.values
        try:
            a_vals = [values[lab] for lab in a_labels]
            b_vals = [values[lab] for lab in b_labels]
        except KeyError as exc:
            raise UnassignedLabel(f"no value for label {exc.args[0]}") from None
        prev, cur = 1, (a_vals[0] if n > 1 else 1) % p  # V(1), V(2)
        for ak, bk in zip(a_vals[1:], b_vals):
            prev, cur = cur, (ak * cur + bk * prev) % p
        out.append(cur)
    return out[0] if isinstance(v, Assignment) else out


def equivalent_by_expansion(e: Expression, n: int,
                            max_monomials: int = DEFAULT_EXPANSION_BOUND) -> bool:
    """Exact check: does e expand to the path set of the n-vertex graph?"""
    return expand(e, max_monomials) == frozenset(enumerate_paths(n, max_monomials))


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


def check_sampling(n: int, trials: int, prime: int):
    """Raise InvalidSampling unless `trials` >= 1 and `prime` is a prime
    above n-1, the degree of the path polynomial, which is what the
    per-trial false-pass bound (n-1)/prime needs."""
    if not isinstance(trials, int) or trials < 1:
        raise InvalidSampling(f"need at least one trial, got {trials!r}")
    if not isinstance(prime, int) or prime <= n - 1 or not is_prime(prime):
        raise InvalidSampling(
            f"modulus must be a prime greater than n-1 = {n - 1}, got {prime!r}")


def equivalent_by_sampling(e: Expression, n: int, trials: int = 32,
                           prime: int | None = None, seed: int = 0) -> bool:
    """Probabilistic check: e agrees with the path-polynomial oracle on
    `trials` random assignments.  Per-trial false-pass probability is at most
    (n-1)/prime (degree bound over a field), so a pass is wrong with
    probability at most ((n-1)/prime)^trials.

    The first point is checked on its own, so a wrong expression is almost
    always rejected after one pass; the remaining points then go through
    evaluate_mod and the oracle as one batch.  Points are drawn from `seed`
    in trial order, so the verdict is that of checking one point per trial.
    """
    prime = DEFAULT_PRIME if prime is None else prime
    _check_n(n)
    check_sampling(n, trials, prime)
    rng = random.Random(seed)
    labs = edges(n)
    first = [Assignment.random(labs, prime, rng)]
    if evaluate_mod(e, first) != oracle_eval_mod(n, first):
        return False
    rest = [Assignment.random(labs, prime, rng) for _ in range(trials - 1)]
    return not rest or evaluate_mod(e, rest) == oracle_eval_mod(n, rest)
