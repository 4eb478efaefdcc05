"""Fibonacci graph: edges, paths, canonical expression, modular oracle."""

import random

import pytest

from fibexpr.decompose import decompose
from fibexpr.expr import (
    Assignment,
    SizeExceeded,
    UnassignedLabel,
    a,
    b,
    evaluate_mod,
    expand,
    format_expression,
    metric_plus,
    metric_terms,
)
from fibexpr.graph import (
    InvalidN,
    canonical_expression,
    edges,
    enumerate_paths,
    oracle_eval_mod,
    path_count,
    path_vertex_sequences,
)


class TestEdges:
    def test_single_vertex_has_no_edges(self):
        assert edges(1) == []

    def test_n4(self):
        assert edges(4) == [a(1), a(2), a(3), b(1), b(2)]

    def test_count_is_2n_minus_3(self):
        assert len(edges(9)) == 15
        for n in range(2, 20):
            assert len(edges(n)) == 2 * n - 3

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            edges(0)

    def test_changing_the_returned_list_changes_no_later_result(self):
        # edges(n) hands out a copy of the cached labels that decompose(n)
        # plans over and oracle_eval_mod(n, ...) reads
        n = 9
        want = [a(i) for i in range(1, n)] + [b(i) for i in range(1, n - 1)]
        pt = Assignment.random(want, 10007, random.Random(0))
        value = oracle_eval_mod(n, pt)
        changed = edges(n)
        changed.reverse()
        changed[0] = a(99)
        assert edges(n) == want
        assert decompose(n)._slot_plan[0] == want
        assert oracle_eval_mod(n, pt) == value


class TestPathCount:
    def test_base_cases(self):
        assert path_count(1) == 1
        assert path_count(2) == 1

    def test_paper_n9(self):
        assert path_count(9) == 34

    def test_n20(self):
        assert path_count(20) == 6765

    def test_matches_enumeration(self):
        for n in range(1, 15):
            assert len(enumerate_paths(n)) == path_count(n)


class TestEnumeratePaths:
    def test_n3(self):
        assert enumerate_paths(3) == [frozenset([a(1), a(2)]), frozenset([b(1)])]

    def test_n12_by_brute_force(self):
        assert len(enumerate_paths(12)) == 144

    def test_paths_distinct(self):
        paths = enumerate_paths(12)
        assert len(set(paths)) == len(paths)

    def test_vertex_sequences_step_one_or_two(self):
        for seq in path_vertex_sequences(13):
            assert all(w - v in (1, 2) for v, w in zip(seq, seq[1:]))

    def test_lexicographic_order(self):
        seqs = path_vertex_sequences(10)
        assert seqs == sorted(seqs)

    def test_bound(self, monkeypatch):
        monkeypatch.setattr("fibexpr.graph.DEFAULT_EXPANSION_BOUND", 987)
        assert len(enumerate_paths(16)) == 987
        for refuse in (enumerate_paths, path_vertex_sequences, canonical_expression):
            with pytest.raises(SizeExceeded,
                               match="^n=17: the number of paths exceeds bound 987$"):
                refuse(17)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_recursive_walk(self, n):
        paths, seqs = recursive_walk(n)
        assert path_vertex_sequences(n) == seqs
        assert enumerate_paths(n) == paths


def recursive_walk(n):
    """The label sets and the vertex sequences of all paths, a-step first,
    by plain recursion: the reference for the iterative walker."""
    paths, seqs = [], []

    def walk(v, taken, seq):
        seq = seq + [v]
        if v == n:
            paths.append(frozenset(taken))
            seqs.append(tuple(seq))
            return
        walk(v + 1, taken + [a(v)], seq)
        if v + 2 <= n:
            walk(v + 2, taken + [b(v)], seq)

    walk(1, [], [])
    return paths, seqs


class TestCanonicalExpression:
    def test_n2(self):
        assert metric_terms(canonical_expression(2)) == 1

    def test_paper_n9_counts(self):
        e = canonical_expression(9)
        assert metric_terms(e) == 201
        assert metric_plus(e) == 33

    def test_n7_summands(self):
        assert metric_plus(canonical_expression(7)) == path_count(7) - 1 == 12

    def test_expansion_is_path_set(self):
        for n in range(2, 12):
            assert expand(canonical_expression(n)) == frozenset(enumerate_paths(n))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_text_lists_the_paths_in_order(self, n):
        # one summand per path, in walk order, its labels source to sink
        _, seqs = recursive_walk(n)
        text = "+".join("".join(f"{'a' if w == v + 1 else 'b'}{v}" for v, w in zip(seq, seq[1:]))
                        for seq in seqs)
        assert format_expression(canonical_expression(n)) == text

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            canonical_expression(1)


class TestOracle:
    def test_n3_example(self):
        v = Assignment({a(1): 2, a(2): 3, b(1): 5}, prime=101)
        assert oracle_eval_mod(3, v) == 11

    def test_n2_is_a1(self):
        v = Assignment({a(1): 42}, prime=101)
        assert oracle_eval_mod(2, v) == 42

    def test_missing_label(self):
        with pytest.raises(UnassignedLabel):
            oracle_eval_mod(5, Assignment({a(1): 1}, prime=101))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_explicit_expansion(self, n):
        rng = random.Random(n)
        e = canonical_expression(n)
        for _ in range(100):
            v = Assignment.random(edges(n), 10007, rng)
            assert oracle_eval_mod(n, v) == evaluate_mod(e, v)
