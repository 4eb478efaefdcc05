"""Interval DP, recurrences, theorem verification, special values, fits."""

import math
import tracemalloc
from operator import add

import pytest

from fibexpr import optimize
from fibexpr.decompose import MiddleLow, decompose
from fibexpr.expr import SizeExceeded, metric_plus, metric_terms
from fibexpr.graph import InvalidN
from fibexpr.optimize import (
    DegenerateFit,
    IntervalTable,
    build_expression,
    complexity_table,
    exponent_fit,
    gd_expression,
    middle_vertices,
    min_metric,
    recurrence_P,
    recurrence_T,
    special_values,
    verify_theorem1,
)


class ReferenceTable:
    """The literal four-term interval DP, one table per n; at_2 overrides
    the metric's value on two vertices."""

    def __init__(self, n, metric, at_2=None):
        self.n = n
        at_2 = (1 if metric == "T" else 0) if at_2 is None else at_2
        best = [None, 0, at_2]  # index = interval length
        arg_offsets = [set(), set(), set()]
        for length in range(3, n + 1):
            candidates = {}
            for d in range(1, length - 1):  # i = p + d
                candidates[d] = best[d + 1] + best[length - d] + best[d] + best[length - d - 1] + 1
            low = min(candidates.values())
            best.append(low)
            arg_offsets.append({d for d, v in candidates.items() if v == low})
        self._best = best
        self._arg_offsets = arg_offsets

    def min_value(self, p=1, q=None):
        q = self.n if q is None else q
        return self._best[q - p + 1]

    def argmin_vertices(self, p=1, q=None):
        q = self.n if q is None else q
        return {p + d for d in self._arg_offsets[q - p + 1]}

    def intervals(self):
        for length in range(3, self.n + 1):
            for p in range(1, self.n - length + 2):
                yield p, p + length - 1


def reference_theorem1(n):
    """The per-n check at one n: its own table, each interval on its own."""
    table = ReferenceTable(n, "T")
    violations = []
    checked = 0
    for p, q in table.intervals():
        checked += 1
        got = table.argmin_vertices(p, q)
        want = optimize.middle_vertices(p, q)
        if got != want:
            violations.append((n, p, q, sorted(got), sorted(want)))
    return checked, violations


def reference_theorem1_reports(n_last):
    """n_max -> (checked, violations) of the per-n loop over n = 3..n_max,
    for every n_max <= n_last; each n's check runs once."""
    reports, checked, violations = {}, 0, []
    for n in range(3, n_last + 1):
        c, v = reference_theorem1(n)
        checked, violations = checked + c, violations + v
        reports[n] = (checked, violations)
    return reports


def reference_is_special(n, at_2=None):
    """Whether n is special, from a table built for n alone."""
    return (ReferenceTable(n, "P", at_2).argmin_vertices(1, n)
            > optimize.middle_vertices(1, n))


def half_offset_scan(n, metric):
    """The O(n^2) table loop: every length scans its split offsets d up to
    (length-1)/2.  Returns (best, arg_offsets), indexed by length."""
    best = [None, 0, 1 if metric == "T" else 0]
    pair = [None, best[1] + best[2]]
    arg_offsets = [set(), set(), set()]
    for length in range(3, n + 1):
        h = (length - 1) // 2
        candidates = list(map(add, pair[1:h + 1], pair[length - 2:length - 2 - h:-1]))
        low = min(candidates)
        best.append(low + 1)
        pair.append(best[-2] + best[-1])
        low_ds = [d for d, v in enumerate(candidates, 1) if v == low]
        arg_offsets.append({*low_ds, *(length - 1 - d for d in low_ds)})
    return best, arg_offsets


def reference_special(n_max, is_special):
    """Special values up to n_max, their runs, and whether the runs are the
    paper's groups (7, 7), (2f-1, 2l+1), ... cut at n_max."""
    special = [n for n in range(7, n_max + 1) if is_special[n]]
    groups = []
    for n in special:
        if groups and n == groups[-1][1] + 1:
            groups[-1] = (groups[-1][0], n)
        else:
            groups.append((n, n))
    paper, f, l = [], 7, 7
    while f <= n_max:
        paper.append((f, min(l, n_max)))
        f, l = 2 * f - 1, 2 * l + 1
    return special, groups, groups == paper


def reference_recurrence(n_max, at_2):
    """Middle-split metric for n = 0..n_max, bottom up (index 0 unused)."""
    values = [None, 0, at_2]
    for n in range(3, n_max + 1):
        h, k = (n + 1) // 2, n // 2 + 1
        values.append(values[h] + values[k] + values[h - 1] + values[k - 1] + 1)
    return values


class TestAgainstPerNReference:
    @pytest.mark.parametrize("metric", ["T", "P"])
    def test_table_equals_literal_dp(self, metric):
        table, ref = IntervalTable(200, metric), ReferenceTable(200, metric)
        for length in range(1, 201):
            for p in (1, 201 - length):
                q = p + length - 1
                assert table.min_value(p, q) == ref.min_value(p, q)
                got = table.argmin_vertices(p, q)
                assert isinstance(got, set)
                assert got == ref.argmin_vertices(p, q)

    def test_theorem1_reports(self):
        reference = reference_theorem1_reports(90)
        for n_max in range(3, 91):
            report = verify_theorem1(n_max)
            assert (report.checked, report.violations) == reference[n_max]
            assert report.checked == sum((n - 1) * (n - 2) // 2 for n in range(3, n_max + 1))
            assert report.ok

    def test_theorem1_violations_in_per_n_order(self, monkeypatch):
        bad_lengths = {5, 12, 29, 58, 87}

        def wrong_middle(p, q):
            # Wrong at a few lengths: shifted right at odd ones, widened at
            # even ones; a function of q - p only, as the real middle set is.
            want = middle_vertices(p, q)
            if q - p + 1 not in bad_lengths:
                return want
            return {v + 1 for v in want} if (q - p) % 2 == 0 else want | {p + 1}

        monkeypatch.setattr(optimize, "middle_vertices", wrong_middle)
        reference = reference_theorem1_reports(90)
        for n_max in range(3, 91):
            report = verify_theorem1(n_max)
            assert (report.checked, report.violations) == reference[n_max]
            assert report.ok == (n_max < 5)
        assert {q - p + 1 for _, p, q, _, _ in verify_theorem1(30).violations} == {5, 12, 29}
        assert verify_theorem1(90).violation_count == len(reference[90][1])

    def test_theorem1_lists_the_first_violations_and_counts_all(self, monkeypatch):
        bad_lengths = {5, 12, 29, 58, 87}

        def wrong_middle(p, q):
            want = middle_vertices(p, q)
            return {v + 1 for v in want} if q - p + 1 in bad_lengths else want

        monkeypatch.setattr(optimize, "middle_vertices", wrong_middle)
        monkeypatch.setattr(optimize, "MAX_LISTED_VIOLATIONS", 100)
        reference = reference_theorem1_reports(90)
        for n_max in (4, 8, 30, 90):
            report = verify_theorem1(n_max)
            _, want = reference[n_max]
            assert report.violations == want[:100]
            assert report.violation_count == len(want)
            assert report.ok == (not want)

    def test_theorem1_on_a_table_wrong_at_every_length(self, monkeypatch):
        """Every length fails, so every one of the C(20000, 3) intervals is a
        violation: they are counted in closed form and only the first are
        listed, in per-n order."""
        monkeypatch.setattr(optimize, "middle_vertices", lambda p, q: {p})
        report = verify_theorem1(20000)
        assert report.violation_count == report.checked == math.comb(20000, 3)
        assert not report.ok
        assert len(report.violations) == optimize.MAX_LISTED_VIOLATIONS
        _, want = reference_theorem1_reports(41)[41]
        assert report.violations == want[:optimize.MAX_LISTED_VIOLATIONS]

    def test_special_values_reports(self):
        is_special = {n: reference_is_special(n) for n in range(7, 91)}
        for n_max in range(7, 91):
            report = special_values(n_max)
            assert (report.special, report.groups, report.groups_ok) == reference_special(
                n_max, is_special)

    def test_special_values_reports_with_patched_middle(self, monkeypatch):
        # A smaller middle set makes more n special, so the groups break.
        monkeypatch.setattr(optimize, "middle_vertices",
                            lambda p, q: {(p + q) // 2} if q - p > 20 else middle_vertices(p, q))
        is_special = {n: reference_is_special(n) for n in range(7, 91)}
        for n_max in range(7, 91):
            report = special_values(n_max)
            assert (report.special, report.groups, report.groups_ok) == reference_special(
                n_max, is_special)
        assert not special_values(90).groups_ok

    def test_recurrences_exact_to_4096(self):
        want_t, want_p = reference_recurrence(4096, 1), reference_recurrence(4096, 0)
        assert [recurrence_T(n) for n in range(1, 4097)] == want_t[1:]
        assert [recurrence_P(n) for n in range(1, 4097)] == want_p[1:]


class TestConvexShortcut:
    @pytest.mark.parametrize("metric", ["T", "P"])
    def test_table_equals_half_offset_scan(self, metric):
        table = IntervalTable(1500, metric)
        best, arg_offsets = half_offset_scan(1500, metric)
        for length in range(1, 1501):
            assert table.min_value(1, length) == best[length]
            got = table.argmin_vertices(1, length)
            assert isinstance(got, set)
            assert got == {1 + d for d in arg_offsets[length]}

    def test_wide_p_argmins_equal_an_exhaustive_scan(self):
        # The argmins wider than 64 offsets are where the search for d0 takes
        # steps of 64 up to 512, past what the comparison to 1500 reaches.
        table = IntervalTable(6000, "P")
        best = table._best
        wide = [length for length in range(3, 6001) if len(table._arg_offsets[length]) > 64]
        assert (len(wide), wide[0], wide[-1]) == (1420, 447, 4033)
        assert max(len(table._arg_offsets[length]) for length in wide) == 514
        for length in wide:
            costs = [best[d + 1] + best[length - d] + best[d] + best[length - d - 1] + 1
                     for d in range(1, length - 1)]
            low = min(costs)
            assert best[length] == low
            assert table.argmin_vertices(1, length) == {
                1 + d for d, cost in enumerate(costs, 1) if cost == low}

    def test_non_convex_pair_falls_back_to_the_scan(self, monkeypatch):
        monkeypatch.setitem(optimize._AT_2, "T", -1)
        ref = ReferenceTable(120, "T", at_2=-1)
        pair = [None] + [ref.min_value(1, k) + ref.min_value(1, k + 1) for k in range(1, 5)]
        assert pair[3] - 2 * pair[2] + pair[1] >= 0
        assert pair[4] - 2 * pair[3] + pair[2] < 0  # so every length >= 6 scans
        table = IntervalTable(120, "T")
        for length in range(1, 121):
            for p in (1, 121 - length):
                q = p + length - 1
                assert table.min_value(p, q) == ref.min_value(p, q)
                assert table.argmin_vertices(p, q) == ref.argmin_vertices(p, q)
        # Not one range: the scan, not the shortcut, answered this length.
        assert table.argmin_vertices(1, 120) == {2, 119}

    def test_special_values_on_fallback_sets(self, monkeypatch):
        # Non-convex P tables give argmin sets {2, n-1}; a middle set moved
        # to vertex 2 at some lengths makes those n special on the set path.
        monkeypatch.setitem(optimize._AT_2, "P", -1)
        monkeypatch.setattr(optimize, "middle_vertices",
                            lambda p, q: {p + 1} if (q - p) % 3 == 0 else middle_vertices(p, q))
        is_special = {n: reference_is_special(n, at_2=-1) for n in range(7, 61)}
        assert any(is_special.values())
        for n_max in range(7, 61):
            report = special_values(n_max)
            assert (report.special, report.groups, report.groups_ok) == reference_special(
                n_max, is_special)


class TestRecurrences:
    def test_bases(self):
        assert recurrence_T(1) == 0
        assert recurrence_T(2) == 1
        assert recurrence_P(1) == 0
        assert recurrence_P(2) == 0

    def test_paper_values(self):
        assert (recurrence_T(9), recurrence_P(9)) == (31, 11)
        assert (recurrence_T(7), recurrence_P(7)) == (19, 7)

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            recurrence_T(0)

    def test_measured_equals_predicted(self):
        for n in range(1, 129):
            e = decompose(n, MiddleLow())
            assert metric_terms(e) == recurrence_T(n)
            assert metric_plus(e) == recurrence_P(n)

    def test_doubling_step_bounded(self):
        # T(2k) <= 4 T(k) + c with the slack frozen from exact evaluation
        assert max(recurrence_T(2 * k) - 4 * recurrence_T(k)
                   for k in range(1, 129)) == 3


class TestMinMetric:
    def test_n9_terms(self):
        table = min_metric(9, "T")
        assert table.min_value() == 31
        assert table.argmin_vertices() == {5}

    def test_n4_terms_both_middles_tie(self):
        table = min_metric(4, "T")
        assert table.min_value() == 6
        assert table.argmin_vertices() == {2, 3}

    def test_n7_plus_includes_both_first_steps(self):
        table = min_metric(7, "P")
        assert table.min_value() == 7
        assert table.argmin_vertices() >= {3, 4}

    def test_interval_1_3_has_single_legal_vertex(self):
        assert min_metric(3, "T").argmin_vertices(1, 3) == {2}

    @pytest.mark.parametrize("check", [lambda n: min_metric(n, "P"), special_values,
                                       verify_theorem1, lambda n: IntervalTable(n, "T")],
                             ids=["min_metric", "special_values", "verify_theorem1",
                                  "IntervalTable"])
    @pytest.mark.parametrize("n", [optimize.TABLE_BOUND + 1, 10**9, 10**4000])
    def test_oversized_table_is_refused_before_it_allocates(self, check, n):
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceeded, match=f"exceeds bound {optimize.TABLE_BOUND}$"):
                check(n)
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("metric,recurrence",
                             [("T", recurrence_T), ("P", recurrence_P)])
    def test_minimum_equals_middle_recurrence(self, metric, recurrence):
        table = min_metric(256, metric)
        for n in range(3, 257):
            assert table.min_value(1, n) == recurrence(n)

    def test_translation_invariance_of_intervals(self):
        table = min_metric(20, "T")
        assert table.min_value(3, 11) == table.min_value(1, 9) == 31
        assert table.argmin_vertices(3, 11) == {7}


class TestTheorem1:
    def test_small(self):
        assert verify_theorem1(9).ok

    def test_up_to_63(self):
        report = verify_theorem1(63)
        assert report.ok
        assert report.checked > 0

    def test_middle_vertices_helper(self):
        assert middle_vertices(1, 9) == {5}
        assert middle_vertices(1, 4) == {2, 3}

    def test_n_max_20000(self):
        report = verify_theorem1(20000)
        assert report.ok
        assert report.checked == math.comb(20000, 3)


class TestSpecialValues:
    def test_paper_groups_to_31(self):
        report = special_values(31)
        assert report.special == [7, 13, 14, 15, 25, 26, 27, 28, 29, 30, 31]

    def test_9_is_not_special(self):
        assert 9 not in special_values(31).special

    def test_next_group_to_63(self):
        report = special_values(63)
        assert [n for n in report.special if n >= 49] == list(range(49, 64))
        assert report.groups == [(7, 7), (13, 15), (25, 31), (49, 63)]
        assert report.groups_ok

    def test_group_recurrences(self):
        groups = special_values(63).groups
        for (f0, l0), (f1, l1) in zip(groups, groups[1:]):
            assert f1 == 2 * f0 - 1
            assert l1 == 2 * l0 + 1

    def test_groups_to_20000(self):
        report = special_values(20000)
        assert report.groups[-2:] == [(6145, 8191), (12289, 16383)]
        assert report.groups_ok

    def test_a_missing_group_breaks_the_fit(self, monkeypatch):
        # Every interior vertex in the middle set from q - p = 39 on, so no
        # n >= 40 is special and the group 49..63 is missing.
        monkeypatch.setattr(optimize, "middle_vertices",
                            lambda p, q: set(range(p + 1, q)) if q - p >= 39
                            else middle_vertices(p, q))
        report = special_values(63)
        assert report.groups == [(7, 7), (13, 15), (25, 31)]
        assert not report.groups_ok


class TestExponentFit:
    def test_m2_is_quadratic(self):
        assert abs(exponent_fit(2, [64, 128, 256, 512]) - 2.0) <= 0.15

    def test_m3(self):
        assert abs(exponent_fit(3, [64, 128, 256, 512]) - 2.26) <= 0.2

    def test_m4(self):
        assert abs(exponent_fit(4, [64, 128, 256, 512]) - 2.5) <= 0.2

    def test_rejects_short_or_unsorted_lists(self):
        with pytest.raises(DegenerateFit):
            exponent_fit(2, [8, 16, 32])
        with pytest.raises(DegenerateFit):
            exponent_fit(2, [8, 16, 16, 32])

    def test_gd_expression_m2_matches_middle(self):
        assert gd_expression(10, 2) == decompose(10, MiddleLow())


class TestComplexityTable:
    def test_n9_row(self):
        rows = complexity_table(9)
        row = rows[-1]
        assert (row.n, row.method) == (9, "middle")
        assert (row.t_measured, row.p_measured) == (31, 11)
        assert (row.t_predicted, row.p_predicted) == (31, 11)
        assert row.equivalent

    def test_rows_cover_2_to_n_max(self):
        rows = complexity_table(6)
        assert [r.n for r in rows] == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("n_max", [31, 2000])
    def test_canonical_path_bound_is_checked_before_any_build(self, n_max, monkeypatch):
        # rows up to n = 30 would be built and verified before n = 31 failed
        def no_build(*args, **kwargs):
            raise AssertionError("a row was built before the refusal")

        monkeypatch.setattr(optimize, "build_expression", no_build)
        with pytest.raises(SizeExceeded, match=f"n={n_max}: the number of paths exceeds"):
            complexity_table(n_max, "canonical")
        with pytest.raises(AssertionError, match="a row was built"):
            complexity_table(30, "canonical")  # within the bound, so building starts


class TestBuildExpression:
    def test_dispatch_errors(self):
        with pytest.raises(ValueError):
            build_expression(9, "gd")
        with pytest.raises(ValueError):
            build_expression(9, "seeded")
        with pytest.raises(ValueError):
            build_expression(9, "no-such-method")
