"""Decomposition procedures: binary, generalized, and vertex strategies."""

import importlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fibexpr.decompose import (
    FixedMap,
    GdSpec,
    InvalidM,
    InvalidVertexChoice,
    Leftmost,
    MiddleHigh,
    MiddleLow,
    Seeded,
    decompose,
    decompose_gd,
    uniform_positions,
)
from fibexpr.expr import (
    Assignment,
    ExprError,
    Product,
    SizeExceeded,
    Sum,
    Term,
    UNIT,
    ZERO,
    _plan,
    _walk,
    a,
    b,
    evaluate_mod,
    expand,
    format_expression,
    metric_plus,
    metric_terms,
    product,
    sumof,
)
from fibexpr.graph import (
    canonical_expression,
    edges,
    enumerate_paths,
    equivalent_by_sampling,
    oracle_eval_mod,
    path_count,
)


def contains_sentinel(e):
    if e is UNIT or e is ZERO:
        return True
    if isinstance(e, (Sum, Product)):
        return any(contains_sentinel(c) for c in e.children)
    return False


class TestStrategies:
    def test_middle_low_odd_and_even(self):
        assert MiddleLow().choose(1, 9) == 5
        assert MiddleLow().choose(1, 4) == 2
        assert MiddleHigh().choose(1, 4) == 3
        assert MiddleHigh().choose(1, 9) == 5

    def test_seeded_is_deterministic(self):
        s = Seeded(17)
        picks = [s.choose(1, 100) for _ in range(5)]
        assert len(set(picks)) == 1
        assert 1 < picks[0] < 100
        assert decompose(12, Seeded(17)) == decompose(12, Seeded(17))

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 + 1, 10**30])
    def test_seeded_pick_lies_strictly_inside(self, seed):
        # q = 4,000,001 is the largest n a build allows
        s = Seeded(seed)
        for q in (3, 4, 11, 1000, 4_000_001):
            for p in [0, 1, q // 3, q // 2, *range(max(0, q - 40), q - 1)]:
                assert p < s.choose(p, q) < q

    def test_seeded_golden_picks(self):
        # Any change to these picks changes every seeded tree
        intervals = [(1, 3), (1, 4), (1, 9), (1, 320), (57, 200), (1, 3000), (1, 4_000_001),
                     (3_999_000, 4_000_001)]
        assert [Seeded(1).choose(p, q) for p, q in intervals] == [
            2, 2, 8, 175, 63, 2505, 1080505, 3999093]
        assert [Seeded(s).choose(1, 1000) for s in (0, -1, 10**30)] == [882, 375, 125]

    def test_seeded_picks_spread_evenly(self):
        counts = Counter(Seeded(1).choose(p, p + 10) - p for p in range(1, 20_001))
        assert sorted(counts) == list(range(1, 10))
        assert all(abs(c - 20_000 / 9) < 20_000 / 90 for c in counts.values())

    def test_seeds_equal_modulo_2_to_the_64_give_one_tree(self):
        for s in (-1, 0, 7):
            t = s + 2**64
            assert all(Seeded(s).choose(p, q) == Seeded(t).choose(p, q)
                       for p in range(1, 40) for q in range(p + 2, 60))
        assert decompose(60, Seeded(-1)) == decompose(60, Seeded(2**64 - 1))
        assert decompose(60, Seeded(1)) != decompose(60, Seeded(2))

    @pytest.mark.parametrize("seed", ["abc", 1.0, None, "1"])
    def test_seeded_rejects_a_non_int_seed(self, seed):
        with pytest.raises(ExprError, match="integer seed"):
            Seeded(seed)

    def test_fixed_map_falls_back_to_middle(self):
        s = FixedMap({(1, 7): 3})
        assert s.choose(1, 7) == 3
        assert s.choose(1, 3) == 2

    def test_bad_choice_rejected(self):
        with pytest.raises(InvalidVertexChoice):
            decompose(5, FixedMap({(1, 5): 5}))


class TestDecompose:
    def test_single_edge(self):
        assert decompose(2, Seeded(0)) == Term(a(1))

    def test_paper_n9_optimal(self):
        e = decompose(9, MiddleLow())
        assert metric_terms(e) == 31
        assert metric_plus(e) == 11
        assert format_expression(e) == (
            "((a1a2+b1)(a3a4+b3)+a1b2a4)((a5a6+b5)(a7a8+b7)+a5b6a8)"
            "+(a1(a2a3+b2)+b1a3)b4(a6(a7a8+b7)+b6a8)")

    def test_paper_n7_first_step_at_3(self):
        e = decompose(7, FixedMap({(1, 7): 3}))
        assert metric_terms(e) == 20
        assert metric_plus(e) == 7

    @pytest.mark.parametrize("strategy", [MiddleLow(), MiddleHigh(), Leftmost(),
                                          Seeded(1), Seeded(2), Seeded(3)])
    def test_expansion_is_path_set(self, strategy):
        for n in range(2, 15):
            assert expand(decompose(n, strategy)) == frozenset(enumerate_paths(n))

    def test_large_n_against_modular_oracle(self):
        for n in (100, 300):
            assert equivalent_by_sampling(decompose(n), n, trials=16, seed=n)

    def test_no_sentinels_survive(self):
        for n in range(2, 20):
            assert not contains_sentinel(decompose(n, Seeded(n)))

    def test_leftmost_grows_like_path_count(self):
        for n in range(4, 25):
            assert metric_terms(decompose(n, Leftmost())) >= path_count(n) / 2


class TestUniformPositions:
    def test_binary_middle(self):
        assert uniform_positions(1, 9, 2) == [5]

    def test_equal_thirds(self):
        assert uniform_positions(1, 13, 3) == [5, 9]

    def test_m_capped_at_interval_span(self):
        assert uniform_positions(1, 4, 7) == [2, 3]

    @pytest.mark.parametrize("p, q, m", [(3, 3, 2), (5, 4, 2), (1, 9, 1), (1, 9, 0)])
    def test_refuses_a_span_below_1_or_m_below_2(self, p, q, m):
        with pytest.raises(InvalidVertexChoice):
            uniform_positions(p, q, m)

    def test_strictly_increasing_inside_interval(self):
        for q in range(3, 40):
            for m in range(2, 10):
                pos = uniform_positions(1, q, m)
                assert all(1 < i < q for i in pos)
                assert all(y > x for x, y in zip(pos, pos[1:]))
                assert len(pos) == min(m, q - 1) - 1


class TestDecomposeGd:
    def test_m2_is_binary_middle_structurally(self):
        for n in range(2, 30):
            assert decompose_gd(n, GdSpec(2)) == decompose(n, MiddleLow())

    def test_degenerate_m_equals_n_minus_1(self):
        e = decompose_gd(9, GdSpec(8))
        assert metric_terms(e) == 201
        assert metric_plus(e) == 33
        assert expand(e) == frozenset(enumerate_paths(9))

    def test_degenerate_m_equals_n_minus_1_at_n24(self):
        # 22 vertices per top interval: 2^22 bypass masks, of which the
        # 46,368 without two consecutive bypassed vertices are summands
        e = decompose_gd(24, GdSpec(23))
        point = Assignment.random(edges(24), rng=random.Random(24))
        assert evaluate_mod(e, point) == oracle_eval_mod(24, point)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_expansion_is_path_set(self, m):
        for n in range(2, 15):
            assert expand(decompose_gd(n, GdSpec(m))) == frozenset(enumerate_paths(n))

    def test_n7_m3_counts_recorded(self):
        e = decompose_gd(7, GdSpec(3))
        assert expand(e) == frozenset(enumerate_paths(7))
        assert len(expand(e)) == 13
        assert metric_terms(e) > 0 and metric_plus(e) > 0

    def test_first_positions_override(self):
        e = decompose_gd(9, GdSpec(3, first_positions=(3, 6)))
        assert expand(e) == frozenset(enumerate_paths(9))
        for bad in [(3, 9), ()]:
            with pytest.raises(InvalidVertexChoice):
                decompose_gd(9, GdSpec(3, first_positions=bad))

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            decompose_gd(9, GdSpec(1))

    def test_no_sentinels_survive(self):
        for m in (3, 4):
            for n in range(2, 16):
                assert not contains_sentinel(decompose_gd(n, GdSpec(m)))

    def test_large_n_against_modular_oracle(self):
        assert equivalent_by_sampling(decompose_gd(200, GdSpec(3)), 200,
                                      trials=16, seed=0)

    def test_summand_bound_is_exact(self, monkeypatch):
        # fibexpr.decompose is the function, so the module is looked up by name
        module = importlib.import_module("fibexpr.decompose")
        for n in range(3, 21):
            for m in range(2, n + 1):
                summands = len(decompose_gd(n, GdSpec(m)).children)
                monkeypatch.setattr(module, "DEFAULT_EXPANSION_BOUND", summands - 1)
                with pytest.raises(SizeExceeded, match=f"{summands} summands"):
                    decompose_gd(n, GdSpec(m))
                monkeypatch.setattr(module, "DEFAULT_EXPANSION_BOUND", summands)
                assert len(decompose_gd(n, GdSpec(m)).children) == summands
                monkeypatch.undo()

    def test_build_summand_bound_is_exact(self, monkeypatch):
        module = importlib.import_module("fibexpr.decompose")
        builds = [(lambda n=n, m=m: decompose_gd(n, GdSpec(m)))
                  for n in range(3, 21) for m in range(2, n + 1)]
        builds += [lambda: decompose(300), lambda: decompose(150, Leftmost()),
                   lambda: decompose(100, Seeded(1)), lambda: decompose_gd(300, GdSpec(5))]

        def summands(e):
            return sum(len(x.children) for x in [*_walk(e), e] if isinstance(x, Sum))

        for build in builds:
            total = summands(build())
            monkeypatch.setattr(module, "_BUILD_SUMMAND_BOUND", total - 1)
            with pytest.raises(SizeExceeded, match=f"a build of at least {total} summands"):
                build()
            monkeypatch.setattr(module, "_BUILD_SUMMAND_BOUND", total)
            assert summands(build()) == total
            monkeypatch.undo()

    @pytest.mark.parametrize("n, m", [(40, 40), (1024, 20)])
    def test_refusal_comes_before_any_enumeration(self, n, m):
        # one interval of F(39) summands, and 41 M summands over the build
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceeded):
                decompose_gd(n, GdSpec(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_refused_with_the_canonical_path_set(self):
        # F(31) summands and F(31) paths, both past the default bound
        with pytest.raises(SizeExceeded):
            decompose_gd(31, GdSpec(30))
        with pytest.raises(SizeExceeded):
            canonical_expression(31)


# -- the one builder, against the two recursive builders it replaced ----------

def reference_decompose(n, strategy, memo=None):
    """The recursive binary builder: E(p,i) E(i,q) + E(p,i-1) b_{i-1} E(i+1,q).
    E(p, q) does not depend on n, so builds for several n can share a memo."""
    memo = {} if memo is None else memo

    def e(p, q):
        if q == p:
            return UNIT
        if q == p + 1:
            return Term(a(p))
        if (p, q) not in memo:
            i = strategy.choose(p, q)
            if not p < i < q:
                raise InvalidVertexChoice(f"strategy chose i={i} for interval ({p},{q})")
            memo[p, q] = sumof([product([e(p, i), e(i, q)]),
                                product([e(p, i - 1), Term(b(i - 1)), e(i + 1, q)])])
        return memo[p, q]

    return e(1, n)


def reference_uniform_positions(p, q, m):
    span = q - p
    parts = min(m, span)
    pos = [p + (2 * j * span + parts - 1) // (2 * parts) for j in range(1, parts)]
    for k in range(1, len(pos)):  # guard rounding collisions
        if pos[k] <= pos[k - 1]:
            pos[k] = pos[k - 1] + 1
    return pos


def reference_decompose_gd(n, spec, memo=None):
    """The recursive GD builder: every bypass subset in binary-counter order,
    an inverted segment is ZERO and product/sumof drop it.  Builds for
    several n with one m can share a memo: only E(1, n) depends on n, by
    the first positions, and that is never kept in it."""
    memo = {} if memo is None else memo
    first = (1, n) if spec.first_positions is not None else None

    def e(p, q):
        if q < p:
            return ZERO
        if q == p:
            return UNIT
        if q == p + 1:
            return Term(a(p))
        if (p, q) in memo and (p, q) != first:
            return memo[p, q]
        if (p, q) == first:
            vs = list(spec.first_positions)
            if not all(p < i < q for i in vs) or sorted(set(vs)) != vs:
                raise InvalidVertexChoice(f"first-step vertices {vs} invalid")
        else:
            vs = reference_uniform_positions(p, q, spec.m)
        k = len(vs)
        summands = []
        for subset in range(2 ** k):
            bypassed = [(subset >> j) & 1 == 1 for j in range(k)]
            factors = []
            for j in range(k + 1):
                left = p if j == 0 else (vs[j - 1] + 1 if bypassed[j - 1] else vs[j - 1])
                right = q if j == k else (vs[j] - 1 if bypassed[j] else vs[j])
                factors.append(e(left, right))
                if j < k and bypassed[j]:
                    factors.append(Term(b(vs[j] - 1)))
            summands.append(product(factors))
        if (p, q) == first:
            return sumof(summands)
        memo[p, q] = sumof(summands)
        return memo[p, q]

    return e(1, n)


def outcome(build, *args):
    try:
        return build(*args)
    except InvalidVertexChoice:
        return InvalidVertexChoice


STRATEGIES = [MiddleLow(), MiddleHigh(), Leftmost(), Seeded(1), Seeded(2),
              FixedMap({(1, 9): 3, (3, 9): 8, (2, 30): 29, (1, 40): 39}),
              FixedMap({(4, 9): 4}), FixedMap({(1, 12): 1}, fallback=Leftmost())]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_binary_builder_matches_recursive_reference(strategy):
    for n in range(1, 41):
        assert (outcome(decompose, n, strategy)
                == outcome(reference_decompose, n, strategy)), n


@st.composite
def fixed_maps(draw):
    """(n, FixedMap) with a vertex for about half the intervals (p, q),
    q-p >= 2, of the n-vertex graph, drawn from a seed.  With bad > 0, about
    one interval in bad gets one of its ends instead, which is invalid."""
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bad = draw(st.sampled_from([0, 0, 40, 400]))
    mapping = {}
    for p in range(1, n - 1):
        for q in range(p + 2, n + 1):
            if bad and rng.randrange(bad) == 0:
                mapping[p, q] = rng.choice((p, q))
            elif rng.random() < 0.5:
                mapping[p, q] = rng.randrange(p + 1, q)
    fallback = draw(st.sampled_from([MiddleLow(), MiddleHigh(), Leftmost(), Seeded(5)]))
    return n, FixedMap(mapping, fallback)


@settings(max_examples=150, deadline=None)
@given(fixed_maps())
def test_random_fixed_maps_match_recursive_reference(case):
    n, strategy = case
    assert outcome(decompose, n, strategy) == outcome(reference_decompose, n, strategy)


@pytest.mark.parametrize("m", range(2, 9))
def test_gd_builder_matches_recursive_reference(m):
    for n in range(1, 41):
        assert decompose_gd(n, GdSpec(m)) == reference_decompose_gd(n, GdSpec(m)), n


def test_densest_vertex_runs_match_recursive_reference():
    # every interior vertex splits (1, n): the longest runs of adjacent vertices
    for n in range(2, 17):
        assert decompose_gd(n, GdSpec(n)) == reference_decompose_gd(n, GdSpec(n)), n


# () is left out: the reference recurses on (1, 9) forever there
@pytest.mark.parametrize("first", [(2,), (8,), (3, 6), (2, 3), (7, 8), (2, 3, 4, 5, 6, 7, 8),
                                   [4, 5], (1, 5), (3, 9), (6, 3), (4, 4), (0,)])
def test_first_positions_match_recursive_reference(first):
    for m in (2, 3, 5):
        spec = GdSpec(m, first_positions=first)
        assert outcome(decompose_gd, 9, spec) == outcome(reference_decompose_gd, 9, spec)


@pytest.mark.parametrize("n, strategy", [(20000, Leftmost()), (3000, Seeded(1))])
def test_deep_builds_evaluate_like_the_oracle(n, strategy):
    e = decompose(n, strategy)
    point = Assignment.random(edges(n), rng=random.Random(n))
    assert evaluate_mod(e, point) == oracle_eval_mod(n, point)


@pytest.mark.parametrize("strategy", [MiddleLow(), MiddleHigh(), Leftmost()])
def test_one_split_per_length_gives_the_per_interval_tree(strategy):
    # FixedMap({}, s) chooses like s but is built by split shape, interval by
    # interval, whose plan orders its slots otherwise
    for n in range(1, 301):
        by_length, by_shape = decompose(n, strategy), decompose(n, FixedMap({}, strategy))
        assert by_length == by_shape, n
        assert metric_terms(by_length) == metric_terms(by_shape), n
        assert metric_plus(by_length) == metric_plus(by_shape), n


@pytest.mark.parametrize("m", range(2, 7))
def test_uniform_gd_split_per_length_matches_recursive_reference(m):
    memo = {}
    for n in range(2, 261):
        for first in [None] + ([(n // 3 + 1, n - 2)] if n >= 6 else []):
            spec = GdSpec(m, first)
            assert decompose_gd(n, spec) == reference_decompose_gd(n, spec, memo), (n, m, first)


# the valid FixedMaps of STRATEGIES; the third refuses (1, 12)
@pytest.mark.parametrize("strategy", [*map(Seeded, range(10)), *STRATEGIES[5:7]],
                         ids=[*(f"seeded-{s}" for s in range(10)), "fixed-1", "fixed-2"])
def test_shape_builds_match_recursive_reference_up_to_300(strategy):
    memo = {}
    for n in [*range(1, 41), *range(41, 301, 23), 300]:
        assert decompose(n, strategy) == reference_decompose(n, strategy, memo), n


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**64, 2**64), st.lists(st.integers(1, 2**31), min_size=1, max_size=20),
       st.integers(2, 2**31))
def test_seeded_column_draw_is_one_splitmix_round(seed, ps, length):
    def draw(p, q):  # Seeded's docstring, one interval at a time
        m64 = 2**64 - 1
        x = (seed + (p << 32 | q) * 0x9E3779B97F4A7C15) & m64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & m64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & m64
        return p + 1 + ((x ^ x >> 31) * (q - p - 1) >> 64)

    s = Seeded(seed)
    assert s.choose_each(ps, length) == [draw(p, p + length) for p in ps]
    assert s.choose(ps[0], ps[0] + length) == draw(ps[0], ps[0] + length)


@pytest.mark.parametrize("build, message", [
    (lambda: decompose_gd(10, GdSpec(3, (5, 3))), r"vertices \[5, 3\] invalid for interval \(1,10\)"),
    (lambda: decompose_gd(10, GdSpec(3, ())), r"no vertices for interval \(1,10\)"),
    (lambda: decompose_gd(10, GdSpec(3, (1, 5))), r"vertices \[1, 5\] invalid for interval \(1,10\)"),
    (lambda: decompose_gd(10, GdSpec(3, (5, 10))), r"vertices \[5, 10\] invalid for interval \(1,10\)"),
    (lambda: decompose(10, FixedMap({(1, 10): 1})), r"vertices \[1\] invalid for interval \(1,10\)"),
    (lambda: decompose(10, FixedMap({(1, 10): 5, (1, 5): 5})),
     r"vertices \[5\] invalid for interval \(1,5\)"),
    # a float vertex is refused whether or not an int one shares its length
    (lambda: decompose(10, FixedMap({(6, 10): 8.0})),
     r"vertices \[8\.0\] invalid for interval \(6,10\)"),
    (lambda: decompose(9, FixedMap({(1, 9): 4.0})), r"vertices \[4\.0\] invalid for interval \(1,9\)"),
])
def test_invalid_vertex_messages(build, message):
    with pytest.raises(InvalidVertexChoice, match=f"^{message}$"):
        build()
