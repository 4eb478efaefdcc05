"""Batched modular evaluation, the batched oracle, and sampling verification."""

import math
import random
import re

import pytest

from fibexpr.decompose import GdSpec, Seeded, decompose, decompose_gd
from fibexpr.expr import (
    Assignment,
    Product,
    Sum,
    Term,
    UNIT,
    UnassignedLabel,
    ZERO,
    a,
    b,
    evaluate_mod,
    expand,
    format_expression,
    parse,
    sumof,
)
from fibexpr.graph import (
    InvalidSampling,
    canonical_expression,
    edges,
    equivalent_by_sampling,
    is_prime,
    oracle_eval_mod,
)

PRIME = 10007


def points(n, k, seed=0, prime=PRIME):
    rng = random.Random(seed)
    return [Assignment.random(edges(n), prime, rng) for _ in range(k)]


def from_monomials(e, point):
    return sum(math.prod(point.values[lab] for lab in m) for m in expand(e)) % point.prime


def distinct_terms(e):
    seen, stack = {}, [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Term):
            seen[id(x)] = x
        elif isinstance(x, (Sum, Product)):
            stack.extend(x.children)
    return list(seen.values())


EXPRESSIONS = {  # name -> (n, builder)
    "middle": (13, lambda: decompose(13)),
    "gd3": (13, lambda: decompose_gd(13, GdSpec(3))),
    "gd4": (12, lambda: decompose_gd(12, GdSpec(4))),
    "seeded": (11, lambda: decompose(11, Seeded(7))),
    "parsed-canonical": (10, lambda: parse(format_expression(canonical_expression(10)))),
    "unit": (3, lambda: UNIT),
    "zero": (3, lambda: ZERO),
}


class TestBatchedEvaluation:
    @pytest.mark.parametrize("name", EXPRESSIONS)
    def test_matches_monomial_sum_at_every_point(self, name):
        n, build = EXPRESSIONS[name]
        e = build()
        pts = points(n, 9, seed=len(name))
        assert evaluate_mod(e, pts) == [from_monomials(e, pt) for pt in pts]

    def test_scalar_call_is_a_batch_of_one(self):
        e = decompose(20)
        pts = points(20, 5)
        assert [evaluate_mod(e, pt) for pt in pts] == evaluate_mod(e, pts)
        assert isinstance(evaluate_mod(e, pts[0]), int)

    def test_scalar_sentinels(self):
        assert evaluate_mod(UNIT, points(4, 1)[0]) == 1
        assert evaluate_mod(ZERO, points(4, 1)[0]) == 0

    def test_unsimplified_nodes(self):
        pts = points(4, 2)
        e = Sum((Product(()), Sum(()), Product((Term(a(1)),)), ZERO))
        assert evaluate_mod(e, pts) == [(1 + pt.values[a(1)]) % PRIME for pt in pts]

    def test_mixed_primes_raise(self):
        pts = points(6, 2) + points(6, 1, prime=10009)
        with pytest.raises(ValueError):
            evaluate_mod(decompose(6), pts)
        with pytest.raises(ValueError):
            oracle_eval_mod(6, pts)

    def test_missing_label_raises(self):
        pts = points(5, 3)
        with pytest.raises(UnassignedLabel):
            evaluate_mod(decompose(6), pts)

    def test_empty_batch(self):
        assert evaluate_mod(decompose(6), []) == []
        assert oracle_eval_mod(6, []) == []

    def test_deep_chain_needs_no_recursion(self):
        depth = 5000
        e = Term(a(1))
        for _ in range(depth):
            e = Product((Sum((e, Term(b(1)))), Term(a(2))))
        pts = points(3, 4)
        want = []
        for pt in pts:
            value = pt.values[a(1)]
            for _ in range(depth):
                value = (value + pt.values[b(1)]) * pt.values[a(2)] % PRIME
            want.append(value)
        assert evaluate_mod(e, pts) == want
        assert evaluate_mod(e, pts[0]) == want[0]


class TestBatchedOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
    def test_matches_per_point_oracle(self, n):
        pts = points(n, 7, seed=n)
        assert oracle_eval_mod(n, pts) == [oracle_eval_mod(n, pt) for pt in pts]

    def test_missing_label_raises(self):
        with pytest.raises(UnassignedLabel):
            oracle_eval_mod(8, points(7, 2))


class TestTermSharing:
    @pytest.mark.parametrize("n", [2, 3, 9, 64, 257])
    def test_one_term_per_edge(self, n):
        assert len(distinct_terms(decompose(n))) == 2 * n - 3
        assert len(distinct_terms(decompose_gd(n, GdSpec(3)))) == 2 * n - 3

    def test_canonical_shares_terms(self):
        assert len(distinct_terms(canonical_expression(9))) == 2 * 9 - 3

    def test_each_build_has_its_own_terms(self):
        first, second = distinct_terms(decompose(9)), distinct_terms(decompose(9))
        assert not {id(t) for t in first} & {id(t) for t in second}


def per_trial(e, n, trials, prime=2147483647, seed=0):
    """The verdict of one scalar evaluation per trial, stopping at the first
    disagreement."""
    rng = random.Random(seed)
    labs = edges(n)
    for _ in range(trials):
        v = Assignment.random(labs, prime, rng)
        if evaluate_mod(e, v) != oracle_eval_mod(n, v):
            return False
    return True


def drop_summand(e, k):
    parts = list(e.children)
    del parts[k % len(parts)]
    return sumof(parts)


def swap_label(e, n, k):
    """Swap a<->b in the k-th label occurrence that stays an edge of the graph."""
    text = format_expression(e)
    spots = [m for m in re.finditer(r"([ab])(\d+)", text)
             if m.group(1) == "b" or int(m.group(2)) <= n - 2]
    m = spots[k % len(spots)]
    swapped = "a" if m.group(1) == "b" else "b"
    return parse(text[:m.start()] + swapped + text[m.start() + 1:])


SAMPLED = [
    (decompose(40), 40),
    (decompose_gd(33, GdSpec(3)), 33),
    (decompose_gd(30, GdSpec(4)), 30),
    (decompose(25, Seeded(3)), 25),
    (canonical_expression(12), 12),
]


class TestSamplingVerdicts:
    @pytest.mark.parametrize("case", range(len(SAMPLED)))
    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_same_verdict_as_per_trial_loop(self, case, trials):
        e, n = SAMPLED[case]
        for target in (e, drop_summand(e, case), swap_label(e, n, 3 * case + 1)):
            verdict = equivalent_by_sampling(target, n, trials=trials, seed=case)
            assert verdict == per_trial(target, n, trials, seed=case)
        assert equivalent_by_sampling(e, n, trials=trials, seed=case)
        assert not equivalent_by_sampling(drop_summand(e, case), n, trials=trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_too_few_trials(self, trials):
        with pytest.raises(InvalidSampling):
            equivalent_by_sampling(decompose(10), 10, trials=trials)

    @pytest.mark.parametrize("prime", [1, 4, 21, 37, 2**31])
    def test_rejects_a_bad_modulus(self, prime):
        with pytest.raises(InvalidSampling):
            equivalent_by_sampling(decompose(40), 40, prime=prime)

    def test_small_prime_cannot_pass_a_wrong_expression(self):
        with pytest.raises(InvalidSampling):
            equivalent_by_sampling(drop_summand(decompose(40), 0), 40, prime=3)

    def test_smallest_valid_modulus(self):
        assert equivalent_by_sampling(decompose(40), 40, prime=41, trials=8)


class TestIsPrime:
    def test_against_a_sieve(self):
        limit = 5000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [m for m in range(limit) if is_prime(m)] == [
            m for m in range(limit) if sieve[m]]

    @pytest.mark.parametrize("m", [2**31 - 1, 2**61 - 1, 2**64 - 59, 1000000007])
    def test_large_primes(self, m):
        assert is_prime(m)

    # Carmichael numbers and strong pseudoprimes to the smallest bases
    @pytest.mark.parametrize("m", [561, 3215031751, 341550071728321,
                                   3825123056546413051, 2**64 - 1, (2**31 - 1) ** 2])
    def test_composites(self, m):
        assert not is_prime(m)
