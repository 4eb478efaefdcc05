"""Acceptance suite: every headline number and property, runnable both from
the CLI (`fibexpr repro`) and from pytest.

Each criterion returns (ok, detail).  run times one and fails it if it
raises or passes over its budget; str() of its result is the line both print.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decompose import FixedMap, GdSpec, MiddleLow, decompose, decompose_gd
from .expr import (
    Term,
    a,
    expand,
    format_expression,
    is_read_once,
    metric_plus,
    metric_terms,
    parse,
    sp_parallel,
    sp_series,
)
from .graph import canonical_expression, enumerate_paths, verify
from .optimize import (
    build_expression,
    exponent_fit,
    min_metric,
    recurrence_P,
    recurrence_T,
    special_values,
    verify_theorem1,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:>2}. {self.name} ({self.seconds:.2f}s) {self.detail}"


def crit_canonical_n9():
    e = canonical_expression(9)
    terms, plus = metric_terms(e), metric_plus(e)
    monomials = expand(e)
    ok = (terms == 201 and plus == 33 and len(monomials) == 34
          and monomials == frozenset(enumerate_paths(9)))
    return ok, f"terms={terms} plus={plus} monomials={len(monomials)}"


def crit_optimal_n9():
    e = decompose(9, MiddleLow())
    terms, plus = metric_terms(e), metric_plus(e)
    return terms == 31 and plus == 11, f"terms={terms} plus={plus}"


def crit_n7_pair():
    mid = decompose(7, MiddleLow())
    alt = decompose(7, FixedMap({(1, 7): 3}))
    got = (metric_terms(mid), metric_plus(mid), metric_terms(alt), metric_plus(alt))
    return got == (19, 7, 20, 7), f"middle={got[0]}/{got[1]} first-step-3={got[2]}/{got[3]}"


def crit_recurrence_consistency():
    for n in range(1, 129):
        e = decompose(n, MiddleLow())
        if metric_terms(e) != recurrence_T(n) or metric_plus(e) != recurrence_P(n):
            return False, f"mismatch at n={n}"
    return True, "n=1..128 measured == predicted"


def crit_theorem1():
    report = verify_theorem1(63)
    return report.ok, f"{report.checked} intervals, {report.violation_count} violations"


def crit_theorem2():
    table = min_metric(63, "P")
    for n in range(3, 64):
        if table.min_value(1, n) != recurrence_P(n):
            return False, f"mismatch at n={n}"
    return True, "n=3..63 middle split attains the P minimum"


def crit_special_values():
    report = special_values(63)
    expected = [7] + list(range(13, 16)) + list(range(25, 32)) + list(range(49, 64))
    firsts = [f for f, _ in report.groups]
    lasts = [l for _, l in report.groups]
    ok = (report.special == expected and firsts == [7, 13, 25, 49]
          and lasts == [7, 15, 31, 63] and report.groups_ok)
    return ok, f"special={report.special} groups={report.groups}"


def crit_gd_degenerate():
    e = decompose_gd(9, GdSpec(8))
    terms, plus = metric_terms(e), metric_plus(e)
    same = expand(e) == expand(canonical_expression(9))
    return terms == 201 and plus == 33 and same, f"terms={terms} plus={plus} expansion_equal={same}"


def crit_equivalence_sweep():
    small = [("canonical", {}), ("middle", {}), ("leftmost", {}),
             ("seeded", {"seed": 1}), ("seeded", {"seed": 2}), ("seeded", {"seed": 3}),
             ("gd", {"m": 3}), ("gd", {"m": 4})]
    for method, kwargs in small:
        for n in range(2, 15):
            e = build_expression(n, method, **kwargs)
            if not verify(e, n).equivalent:
                return False, f"expansion mismatch: {method} {kwargs} n={n}"
    for n in (100, 512, 1024):
        for method, kwargs in (("middle", {}), ("gd", {"m": 3})):
            e = build_expression(n, method, **kwargs)
            if not verify(e, n, "modeval", trials=32, seed=n).equivalent:
                return False, f"modular mismatch: {method} {kwargs} n={n}"
    return True, "all methods n<=14 by expansion; n in {100,512,1024} by 32 trials"


def crit_asymptotics():
    fits = {2: exponent_fit(2, [64, 128, 256, 512]),
            3: exponent_fit(3, [64, 128, 256, 512]),
            4: exponent_fit(4, [64, 128, 256, 512])}
    ok = (1.85 <= fits[2] <= 2.15 and 2.06 <= fits[3] <= 2.46 and 2.3 <= fits[4] <= 2.7)
    detail = " ".join(f"m={m}:{v:.3f}" for m, v in fits.items())
    return ok, detail


def crit_read_once():
    # the two-terminal series-parallel graph with labels a..f built by composition
    la, lb, lc, ld, le, lf = (Term(a(i)) for i in range(1, 7))
    inner = sp_parallel(sp_series(la, sp_parallel(lb, lc)), lf)
    fig = sp_series(inner, sp_parallel(ld, le))
    expected = frozenset([
        frozenset([a(1), a(2), a(4)]), frozenset([a(1), a(2), a(5)]),
        frozenset([a(1), a(3), a(4)]), frozenset([a(1), a(3), a(5)]),
        frozenset([a(6), a(4)]), frozenset([a(6), a(5)]),
    ])
    sp_ok = expand(fig) == expected and is_read_once(fig)
    fib4 = decompose(4, MiddleLow())
    return sp_ok and not is_read_once(fib4), (
        f"sp_expansion_ok={expand(fig) == expected} sp_read_once={is_read_once(fig)} "
        f"fib4_read_once={is_read_once(fib4)}")


def crit_parser_round_trip():
    # canonical and leftmost texts grow exponentially (tens of millions of
    # terms by n=32), so those two run to the largest practical sizes; the
    # printer and grammar are size-independent.
    cases = [("canonical", {}, 20), ("middle", {}, 32), ("leftmost", {}, 24),
             ("seeded", {"seed": 7}, 32), ("gd", {"m": 3}, 32), ("gd", {"m": 4}, 32)]
    for method, kwargs, cap in cases:
        for n in range(2, cap + 1):
            e = build_expression(n, method, **kwargs)
            if parse(format_expression(e)) != e:
                return False, f"round-trip failed: {method} {kwargs} n={n}"
    return True, "parse(format(e)) == e across methods, n<=32"


CRITERIA = [
    (1, "canonical n=9: 201 terms, 33 plus, 34 monomials", crit_canonical_n9, 1.0),
    (2, "optimal n=9: 31 terms, 11 plus", crit_optimal_n9, 1.0),
    (3, "n=7 pair: 19/7 (middle) and 20/7 (first step at 3)", crit_n7_pair, None),
    (4, "measured == recurrence for n=1..128", crit_recurrence_consistency, 10.0),
    (5, "T-argmin is exactly the middle set, n<=63", crit_theorem1, 30.0),
    (6, "middle split attains the P minimum, n<=63", crit_theorem2, None),
    (7, "special values up to 63 with group recurrences", crit_special_values, None),
    (8, "GD m=n-1 degenerates to sequential paths (n=9)", crit_gd_degenerate, None),
    (9, "equivalence sweep across methods and sizes", crit_equivalence_sweep, 60.0),
    (10, "growth exponents for m=2,3,4", crit_asymptotics, None),
    (11, "read-once: series-parallel yes, Fibonacci n=4 no", crit_read_once, None),
    (12, "parser round-trip across methods, n<=32", crit_parser_round_trip, None),
]


def run(criterion: tuple) -> CriterionResult:
    """Run one (number, name, fn, budget) entry of CRITERIA."""
    number, name, fn, budget = criterion
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if ok and budget is not None and elapsed > budget:
        ok, detail = False, f"{detail} [over {budget:.0f}s budget]"
    return CriterionResult(number, name, ok, detail, elapsed)
