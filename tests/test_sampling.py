"""Batched modular evaluation, the batched oracle, and sampling verification."""

import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

import fibexpr.graph
from fibexpr.decompose import GdSpec, Seeded, decompose, decompose_gd
from fibexpr.expr import (
    Assignment,
    DuplicateMonomial,
    ExprError,
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
    formula_length,
    labels_of,
    metric_plus,
    metric_terms,
    parse,
    simplify,
    sumof,
)
from fibexpr.graph import (
    InvalidSampling,
    Verdict,
    canonical_expression,
    edges,
    equivalent_by_expansion,
    equivalent_by_sampling,
    false_pass_bound,
    is_prime,
    oracle_eval_mod,
    verify,
)
from test_order import built_roots

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


def deep_chain(depth, leaf=a(1)):
    """((a1 + b1) a2 + b1) a2 ... nested `depth` levels deep."""
    e = Term(leaf)
    for _ in range(depth):
        e = Product((Sum((e, Term(b(1)))), Term(a(2))))
    return e


def shared_twice():
    """A DAG where one parent holds the same Sum twice, and a shared Sum's
    last parent comes after a deep subtree.
    `one` expands to the empty monomial alone, so no monomial repeats a label."""
    one = Sum((UNIT, ZERO))
    s = Sum((Term(a(11)), Term(b(11))))
    deep = Term(a(1))
    for i in range(2, 11):  # distinct labels at every level
        deep = Product((Sum((deep, Term(b(i - 1)))), Term(a(i))))
    return Sum((Product((s, one, one, Term(a(12)))), deep, Product((s, Term(a(13))))))


EXPRESSIONS = {  # name -> (n, builder)
    "middle": (13, lambda: decompose(13)),
    "gd3": (13, lambda: decompose_gd(13, GdSpec(3))),
    "gd4": (12, lambda: decompose_gd(12, GdSpec(4))),
    "seeded": (11, lambda: decompose(11, Seeded(7))),
    "parsed-canonical": (10, lambda: parse(format_expression(canonical_expression(10)))),
    "shared-twice": (14, shared_twice),
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

    @pytest.mark.parametrize("prime", [0, -7, 1, 2.5, True])
    def test_a_prime_that_is_not_an_int_of_at_least_2_raises(self, prime):
        # unchecked, 0 divided by zero, -7 gave the "residue" -3 and 2.5 gave
        # 0.65625 from evaluate_mod against 0.5 from the oracle
        bad = Assignment(dict.fromkeys(edges(6), 3), prime)
        good = Assignment(dict.fromkeys(edges(6), 3), 7)
        for v in (bad, [bad], [bad, bad], [good, bad]):
            with pytest.raises(ExprError, match="need an integer prime >= 2"):
                evaluate_mod(decompose(6), v)
            with pytest.raises(ExprError, match="need an integer prime >= 2"):
                oracle_eval_mod(6, v)

    def test_missing_label_raises(self):
        pts = points(5, 3)
        with pytest.raises(UnassignedLabel):
            evaluate_mod(decompose(6), pts)

    def test_empty_batch(self):
        assert evaluate_mod(decompose(6), []) == []
        assert oracle_eval_mod(6, []) == []

    def test_deep_chain_needs_no_recursion(self):
        depth = 5000
        e = deep_chain(depth)
        pts = points(3, 4)
        want = []
        for pt in pts:
            value = pt.values[a(1)]
            for _ in range(depth):
                value = (value + pt.values[b(1)]) * pt.values[a(2)] % PRIME
            want.append(value)
        assert evaluate_mod(e, pts) == want
        assert evaluate_mod(e, pts[0]) == want[0]


def local_label_counts(e):
    """labels_of by this test's own walk: each node's Counter is the sum of
    its children's, memoised by identity, with an explicit stack."""
    memo, stack = {}, [e]
    while stack:
        x = stack[-1]
        if id(x) in memo:
            stack.pop()
        elif isinstance(x, Term):
            memo[id(x)] = Counter([x.label])
        elif not isinstance(x, (Sum, Product)):
            memo[id(x)] = Counter()
        elif todo := [c for c in x.children if id(c) not in memo]:
            stack.extend(todo)
        else:
            memo[id(x)] = sum((memo[id(c)] for c in x.children), Counter())
    return memo[id(e)]


LABELLED = {
    **{name: build for name, (_, build) in EXPRESSIONS.items()},
    "canonical": lambda: canonical_expression(11),
    "middle-large": lambda: decompose(300),
    "parsed-gd3": lambda: parse(format_expression(decompose_gd(40, GdSpec(3)))),
    "deep-chain": lambda: deep_chain(5000),
}


@pytest.mark.parametrize("name", LABELLED)
def test_labels_of_matches_a_local_count(name):
    e = LABELLED[name]()
    assert labels_of(e) == local_label_counts(e)


class TestDeepFolds:
    depth = 5000

    def test_metrics(self):
        e = deep_chain(self.depth)
        assert metric_terms(e) == 2 * self.depth + 1
        assert metric_plus(e) == self.depth

    def test_format_and_labels(self):
        e = deep_chain(self.depth)
        text = format_expression(e)
        assert text == "(" * self.depth + "a1" + "+b1)a2" * self.depth
        assert labels_of(e) == {a(1): 1, b(1): self.depth, a(2): self.depth}
        assert metric_terms(parse(text)) == 2 * self.depth + 1

    def test_equality_and_hash(self):
        e = deep_chain(self.depth)
        twin, parsed = deep_chain(self.depth), parse(format_expression(e))
        assert e == twin and twin == e and parsed == e
        assert hash(e) == hash(twin) == hash(parsed)
        assert {e: "chain"}[parsed] == "chain"
        # the chains differ only in their innermost leaf
        other = deep_chain(self.depth, leaf=a(3))
        assert e != other and other != e
        assert e != deep_chain(self.depth - 1)

    def test_expand(self):
        # a2 is a factor at every level, so the monomials repeat it
        with pytest.raises(DuplicateMonomial, match="label repeated"):
            expand(deep_chain(self.depth))

    def test_simplify(self):
        e = Term(a(1))
        for _ in range(self.depth):  # deep_chain with UNIT, ZERO and nesting to remove
            e = Product((Sum((Sum((e, ZERO)), Term(b(1)))), Product((UNIT, Term(a(2))))))
        assert simplify(e) == deep_chain(self.depth)
        assert simplify(deep_chain(self.depth)) == deep_chain(self.depth)

    def test_repr_is_bounded(self):
        e = deep_chain(self.depth)
        assert repr(e) == "Product(<2 children>)"
        assert repr(e.children[0]) == "Sum(<2 children>)"
        assert repr(Sum((Term(a(1)), Term(b(1)), UNIT))) == "Sum(<3 children>)"


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

    @pytest.mark.parametrize("text, n", [("a1", 1), ("a1a2+b1+b2", 3), ("a1a2a3+b1", 3)])
    def test_label_outside_the_graph_is_not_equivalent(self, text, n):
        assert not equivalent_by_sampling(parse(text), n)

    def test_smallest_valid_modulus(self):
        assert equivalent_by_sampling(decompose(40), 40, prime=41, trials=8)

    def test_printed_bound_covers_the_exact_pass_rate(self):
        # f + (a1-1)(a1-2)(a1-3) mod 5 at n=4: of degree n-1, and equal to f
        # wherever a1 is 1, 2 or 3, so at 3/4 of all points
        e = parse("a1a2a3+a1b2+b1a3+a1a1a1+a1a1+a1a1+a1a1+a1a1+a1+1+1+1+1")
        labs = edges(4)
        every = [Assignment(dict(zip(labs, values)), 5)
                 for values in itertools.product(range(1, 5), repeat=len(labs))]
        passed = sum(map(int.__eq__, evaluate_mod(e, every), oracle_eval_mod(4, every)))
        assert (passed, len(every)) == (768, 1024)
        assert passed / len(every) <= float(false_pass_bound(4, 1, 5))


def verified_roots():
    """(name, n, root) for every root of test_order.built_roots() and, where
    its text is short enough to parse, its parsed copy (leftmost texts grow
    exponentially, to 1.7 * 10^13 characters at n=60)."""
    for name, e in built_roots():
        n = int(re.search(r"\((\d+)", name)[1])
        yield name, n, e
        if formula_length(e) <= 20_000:
            yield f"parse({name})", n, parse(format_expression(e))


class TestVerify:
    def test_verdicts_agree_with_the_oracle_on_every_built_root(self):
        for name, n, root in verified_roots():
            point = points(n, 1, seed=n)
            for e in (root, sumof([root, UNIT])):  # the second is off by the constant 1
                truth = evaluate_mod(e, point) == oracle_eval_mod(n, point)
                assert truth == (e is root), name
                assert verify(e, n, "modeval", trials=2, seed=n).equivalent == truth, name
                assert equivalent_by_sampling(e, n, trials=2, seed=n) == truth, name
                if n <= 14:
                    assert verify(e, n, "expand").equivalent == truth, name
                    assert equivalent_by_expansion(e, n) == truth, name

    def test_a_repeated_monomial_is_a_reason_not_an_exception(self):
        e = parse("(a1+b1)(a2+1)+b1")
        reason = "monomial appears in two summands: ['b1']"
        assert verify(e, 3) == Verdict(False, "expand", reason, monomials=2)
        assert equivalent_by_expansion(e, 3) is False

    def test_modeval_reports_trials_prime_and_bound(self):
        verdict = verify(decompose(64), 64, "modeval", trials=40)
        assert (verdict.equivalent, verdict.trials, verdict.prime) == (True, 40, 2**31 - 1)
        assert verdict.log10_bound == pytest.approx(40 * math.log10(63 / (2**31 - 2)))
        assert verify(UNIT, 1, "modeval").log10_bound == -math.inf

    def test_unknown_mode_raises(self):
        with pytest.raises(ExprError, match="unknown verification mode 'exact'"):
            verify(decompose(5), 5, "exact")

    @pytest.mark.parametrize("trials", [1, 32, 33, 70])
    def test_points_go_one_per_call_in_draw_order(self, monkeypatch, trials):
        seen, evaluate = [], fibexpr.graph.evaluate_mod

        def recording(e, pt):
            seen.append(pt)
            return evaluate(e, pt)

        monkeypatch.setattr(fibexpr.graph, "evaluate_mod", recording)
        assert verify(decompose(20), 20, "modeval", trials=trials, prime=PRIME, seed=5).equivalent
        assert all(isinstance(pt, Assignment) for pt in seen)
        assert seen == points(20, trials, seed=5)

    def test_memory_stays_bounded_as_trials_grow(self, monkeypatch):
        # evaluation is stubbed to agree, so every point is drawn and the
        # peak is the points' own: about 9.4 KB each at n=64, so 18 MB when
        # all 2,000 are drawn at once
        def agree(_, pt):
            return 0

        monkeypatch.setattr(fibexpr.graph, "evaluate_mod", agree)
        monkeypatch.setattr(fibexpr.graph, "oracle_eval_mod", agree)
        e = decompose(64)
        tracemalloc.start()
        try:
            assert equivalent_by_sampling(e, 64, trials=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


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


class TestRandomPoints:
    """Assignment.random: independent uniform values in 1..prime-1."""

    @pytest.mark.parametrize("prime", [1, 0, -7])
    def test_refuses_a_prime_below_2(self, prime):
        with pytest.raises(ExprError, match="need an integer prime >= 2"):
            Assignment.random(edges(5), prime, random.Random(0))

    @pytest.mark.parametrize("prime", [2.5, True, 7.0])
    def test_refuses_a_prime_that_is_not_an_int(self, prime):
        with pytest.raises(ExprError, match="need an integer prime >= 2"):
            Assignment.random(edges(5), prime, random.Random(0))

    @pytest.mark.parametrize("prime", [2, 3, 5, 2**31 - 1, 2**127 - 1, 2**521 - 1])
    def test_values_lie_in_1_to_prime_minus_1(self, prime):
        labels = edges(400)
        pt = Assignment.random(labels, prime, random.Random(prime % 1000))
        assert pt.prime == prime and list(pt.values) == labels
        assert all(1 <= v <= prime - 1 for v in pt.values.values())
        if prime > 5:
            assert len(set(pt.values.values())) > 790  # not one value repeated

    @pytest.mark.parametrize("prime", [5, 7])
    def test_counts_fit_a_uniform_draw(self, prime):
        draws = 20_000
        labels = [a(k) for k in range(1, draws + 1)]
        counts = Counter(Assignment.random(labels, prime, random.Random(prime)).values.values())
        assert sorted(counts) == list(range(1, prime))
        # each count is binomial(draws, 1/(prime-1)); allow five standard deviations
        q = 1 / (prime - 1)
        spread = 5 * math.sqrt(draws * q * (1 - q))
        assert all(abs(k - draws * q) < spread for k in counts.values()), counts

    def test_labels_may_come_from_a_generator(self):
        labels = edges(30)
        from_list = Assignment.random(labels, PRIME, random.Random(4))
        from_generator = Assignment.random((lab for lab in labels), PRIME, random.Random(4))
        assert from_generator == from_list

    def test_one_seed_gives_one_assignment(self):
        draws = [Assignment.random(edges(60), 5, random.Random(9)) for _ in range(2)]
        assert draws[0] == draws[1]
        assert draws[0] != Assignment.random(edges(60), 5, random.Random(10))
