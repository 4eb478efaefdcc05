"""Exact minimum-complexity search over the binary decomposition family.

Both complexity characteristics are additive over the decomposition step

    value(p,q) = value(p,i) + value(i,q) + value(p,i-1) + value(i+1,q) + 1

so an interval DP minimizing over i is exact within the family.  The minimum
for an interval depends only on its length (the base cases are translation
invariant), so tables are stored per length and answered per interval.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import add

# Read graph.canonical_expression at call time, so a wrapper patched there sees it.
from . import graph
from .decompose import (FixedMap, GdSpec, Leftmost, MiddleHigh, MiddleLow, Seeded, decompose,
                        decompose_gd)
from .expr import (DEFAULT_EXPANSION_BOUND, ExprError, Expression, SizeExceeded, _check_int,
                   metric_plus, metric_terms)
from .graph import _check_n, verify


class DegenerateFit(ExprError):
    """Not enough spread in the data points to estimate an exponent."""


# The metric of the two-vertex graph: one term (a1), no plus operator.
_AT_2 = {"T": 1, "P": 0}

# IntervalTable refuses a larger n before it allocates: its lists hold a few
# ints per length, so n = 10^6 takes about 3 s and 250 MB.
TABLE_BOUND = 10**6

# complexity_table builds and verifies every n from 2 up, so its time grows
# a little faster than n_max^2 (0.9, 3.7 and 16.9 s at n_max = 200, 400 and
# 800); it refuses an n_max above this bound, which takes about two minutes.
COMPLEXITY_TABLE_BOUND = 2000


@lru_cache(maxsize=None)
def _middle_recurrence(n: int, at_2: int) -> int:
    """Metric of the middle-split expression on n vertices, given its value
    at_2 on two vertices (0 on one vertex, for both metrics)."""
    if n <= 2:
        return 0 if n == 1 else at_2
    return (_middle_recurrence((n + 1) // 2, at_2) + _middle_recurrence(n // 2 + 1, at_2)
            + _middle_recurrence((n + 1) // 2 - 1, at_2) + _middle_recurrence(n // 2, at_2)
            + 1)


def recurrence_T(n: int) -> int:
    """Term count of the optimal (middle-split) decomposition expression."""
    _check_n(n)
    return _middle_recurrence(n, _AT_2["T"])


def recurrence_P(n: int) -> int:
    """Plus-operator count of the optimal decomposition expression."""
    _check_n(n)
    return _middle_recurrence(n, _AT_2["P"])


def middle_vertices(p: int, q: int) -> set:
    """The middle vertex (odd interval length) or both middles (even length)."""
    if (q - p) % 2 == 0:
        return {(p + q) // 2}
    return {(p + q - 1) // 2, (p + q + 1) // 2}


class IntervalTable:
    """Per-interval minima and argmin vertex sets for one metric on (1, n)."""

    def __init__(self, n: int, metric: str):
        _check_n(n)
        if metric not in ("T", "P"):
            raise ExprError(f"metric must be 'T' or 'P', got {metric!r}")
        if n > TABLE_BOUND:
            raise SizeExceeded(f"n={n}: the interval table exceeds bound {TABLE_BOUND}")
        self.n = n
        self.metric = metric
        # Indexed by interval length.  With pair[k] = best[k] + best[k+1],
        # splitting at offset d costs f(d) = pair[d] + pair[length-1-d] + 1,
        # which is symmetric about (length-1)/2.  While every second
        # difference of pair is non-negative (`convex`), f is convex too, so
        # it is lowest at h = (length-1)//2, non-increasing on [1, h], and
        # its argmin is the one range(d0, length-d0), with d0 the first
        # d <= h where f(d) == f(h).  d0 is found by galloping down from h
        # (steps 1, 2, 4, ... while f stays at its low) and then halving the
        # step back to 1, so a middle-only argmin costs one comparison.
        # Once convexity fails, every later length scans all d <= h (d and
        # length-1-d cost the same).
        best = [None, 0, _AT_2[metric]]
        pair = [None, best[1] + best[2]]
        arg_offsets: list[set | range] = [set(), set(), set()]
        convex = True
        for length in range(3, n + 1):
            h = (length - 1) // 2
            if convex:
                e = length - 1 - h
                low = pair[h] + pair[e]
                d0, step = h, 1
                while d0 > step and pair[d0 - step] + pair[e + step] == low:
                    d0, e, step = d0 - step, e + step, 2 * step
                # Now d0 - step < (the first d with f(d) == low) <= d0.
                while step > 1:
                    step //= 2
                    if d0 > step and pair[d0 - step] + pair[e + step] == low:
                        d0, e = d0 - step, e + step
                arg_offsets.append(range(d0, length - d0))
            else:
                candidates = list(map(add, pair[1:h + 1], pair[length - 2:length - 2 - h:-1]))
                low = min(candidates)
                low_ds = [d for d, v in enumerate(candidates, 1) if v == low]
                arg_offsets.append({*low_ds, *(length - 1 - d for d in low_ds)})
            best.append(low + 1)
            pair.append(best[-2] + best[-1])
            convex = convex and (length < 4 or pair[-1] - 2 * pair[-2] + pair[-3] >= 0)
        self._best = best
        self._arg_offsets = arg_offsets

    def _vertices(self, p: int, q: int | None) -> int:
        """The vertex count of the interval (p, q), q defaulting to n."""
        q = self.n if q is None else q
        _check_int(p, 1, "interval start")
        _check_int(q, p, "interval end")
        if q > self.n:
            raise ExprError(f"need an interval end <= {self.n}, got {q!r}")
        return q - p + 1

    def min_value(self, p: int = 1, q: int | None = None) -> int:
        return self._best[self._vertices(p, q)]

    def argmin_vertices(self, p: int = 1, q: int | None = None) -> set:
        return {p + d for d in self._arg_offsets[self._vertices(p, q)]}


def min_metric(n: int, metric: str) -> IntervalTable:
    """Exact minima over the binary decomposition family for every interval."""
    _check_n(n, minimum=3)
    return IntervalTable(n, metric)


# verify_theorem1 lists at most this many violations; it counts them all.
MAX_LISTED_VIOLATIONS = 10_000


@dataclass
class TheoremReport:
    n_max: int
    checked: int
    violations: list  # (n, p, q, argmin, expected), the first MAX_LISTED_VIOLATIONS
    violation_count: int  # all of them

    @property
    def ok(self) -> bool:
        return not self.violation_count


def verify_theorem1(n_max: int) -> TheoremReport:
    """Check that the T-metric argmin of every interval of every n <= n_max
    is exactly the middle vertex set.

    One table for (1, n_max) answers every n: minima and argmin offsets
    depend only on interval length, so the table for n is a prefix of it,
    and both the argmin and the middle set of (p, q) are p plus offsets
    that depend only on q - p.  Checking each length once therefore checks
    all (n, p, q); `checked` counts those, sum (n-1)(n-2)/2 = C(n_max, 3).
    Each length is decided on offsets from vertex 1 (a range or a set), as
    in special_values, so no argmin vertex set is built per length.  A
    length L that fails is a violation at each of the
    (n_max-L+1)(n_max-L+2)/2 triples (n, p, q) it covers; all are counted,
    and the first MAX_LISTED_VIOLATIONS are listed in the order of n, then
    length, then p."""
    table = min_metric(n_max, "T")
    bad = []  # (length, argmin, middle set) of (1, length), per failing length
    for length in range(3, n_max + 1):
        offsets, middle = table._arg_offsets[length], middle_vertices(0, length - 1)
        if len(offsets) != len(middle) or not all(d in offsets for d in middle):
            bad.append((length, sorted(1 + d for d in offsets), sorted(1 + d for d in middle)))
    count = sum((n_max - length + 1) * (n_max - length + 2) // 2 for length, _, _ in bad)
    lengths = [length for length, _, _ in bad]
    listed = ((n, p, p + length - 1, [v + p - 1 for v in got], [v + p - 1 for v in want])
              for n in range(3, n_max + 1)
              for length, got, want in bad[:bisect_right(lengths, n)]
              for p in range(1, n - length + 2))
    return TheoremReport(n_max, math.comb(n_max, 3),
                         list(islice(listed, MAX_LISTED_VIOLATIONS)), count)


@dataclass
class SpecialValuesReport:
    n_max: int
    special: list  # all special n <= n_max, ascending
    groups: list   # (n_first, n_last) per consecutive run
    groups_ok: bool  # groups == the paper's (7, 7), (2f-1, 2l+1) per (f, l), cut at n_max


def special_values(n_max: int) -> SpecialValuesReport:
    """Values of n whose top-interval P-argmin strictly exceeds the middle set,
    i.e. graphs with several minimum-plus first-step decompositions.

    Decided on offsets from vertex 1 (a range or a set), so no vertex set
    is built per n: n is special when its argmin offsets strictly contain
    the middle offsets."""
    _check_n(n_max, minimum=7)
    table = min_metric(n_max, "P")
    special = []
    for n in range(7, n_max + 1):
        offsets, middle = table._arg_offsets[n], middle_vertices(0, n - 1)
        if len(offsets) > len(middle) and all(d in offsets for d in middle):
            special.append(n)

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
    return SpecialValuesReport(n_max, special, groups, groups == paper)


def gd_expression(n: int, m: int) -> Expression:
    """Uniform GD expression for the given part count (m=2 is the binary
    middle split)."""
    return decompose_gd(n, GdSpec(m))


def exponent_fit(m: int, n_list: list) -> float:
    """Least-squares slope of log T(n) against log n for uniform GD
    expressions with the given part count."""
    if len(n_list) < 4 or any(y <= x for x, y in zip(n_list, n_list[1:])):
        raise DegenerateFit("need at least 4 strictly increasing values of n")
    points = []
    for n in n_list:
        t = metric_terms(gd_expression(n, m))
        if t < 2:
            raise DegenerateFit(f"term count {t} at n={n} is too small to fit")
        points.append((math.log(n), math.log(t)))
    return statistics.linear_regression([x for x, _ in points],
                                        [y for _, y in points]).slope


@dataclass
class ComplexityRecord:
    """One measured-vs-predicted row; predictions are the middle-split
    recurrences regardless of method."""

    n: int
    method: str
    t_measured: int
    p_measured: int
    t_predicted: int
    p_predicted: int
    equivalent: bool


def build_expression(n: int, method: str, *, m: int | None = None,
                     tie: str = "low", seed: int | None = None,
                     vertex: int | None = None) -> Expression:
    """Method-name dispatch shared by the CLI, tables, and verification."""
    if method == "canonical":
        return graph.canonical_expression(n)
    if method == "middle":
        return decompose(n, MiddleHigh() if tie == "high" else MiddleLow())
    if method == "fixed":
        if vertex is None:
            raise ExprError("method 'fixed' needs a first-step vertex")
        return decompose(n, FixedMap({(1, n): vertex}))
    if method == "leftmost":
        return decompose(n, Leftmost())
    if method == "seeded":
        if seed is None:
            raise ExprError("method 'seeded' needs a seed")
        return decompose(n, Seeded(seed))
    if method == "gd":
        if m is None:
            raise ExprError("method 'gd' needs a part count m")
        return decompose_gd(n, GdSpec(m))
    raise ExprError(f"unknown method {method!r}")


def complexity_table(n_max: int, method: str = "middle") -> list[ComplexityRecord]:
    """Records for n = 2..n_max; equivalence by full expansion up to n=14,
    by modular sampling beyond.  An n_max above COMPLEXITY_TABLE_BOUND
    raises SizeExceeded before any row is built, as does a canonical table
    whose last row has more paths than DEFAULT_EXPANSION_BOUND."""
    _check_n(n_max, minimum=2)
    if n_max > COMPLEXITY_TABLE_BOUND:
        raise SizeExceeded(f"n_max={n_max}: the complexity table exceeds bound "
                           f"{COMPLEXITY_TABLE_BOUND}")
    if method == "canonical":
        graph._path_count(n_max, DEFAULT_EXPANSION_BOUND)
    rows = []
    for n in range(2, n_max + 1):
        e = build_expression(n, method)
        equivalent = verify(e, n, "expand" if n <= 14 else "modeval", trials=8).equivalent
        rows.append(ComplexityRecord(n, method, metric_terms(e), metric_plus(e),
                                     recurrence_T(n), recurrence_P(n), equivalent))
    return rows
