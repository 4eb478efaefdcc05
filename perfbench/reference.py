"""One-off reference run: the ROADMAP "Baseline at this re-anchor" points,
each timed once under its own name and compared with the ROADMAP value.

A value off by more than 2x either way is flagged.  This is not a
workload: it runs fixed sizes, once, for about a minute.
"""

from __future__ import annotations

import json
import random
import sys
import time

import fibexpr as F

from workloads import own_walk, random_point

PRIME = F.DEFAULT_PRIME
FLAG_RATIO = 2.0

# name -> (ROADMAP value, unit)
ROADMAP = {
    "ref.middle1024.build_s": (0.064, "s"),
    "ref.middle1024.metric_terms_s": (0.059, "s"),
    "ref.middle1024.printed_terms": (415_061, "count"),
    "ref.middle1024.dag_nodes": (21_664, "count"),
    "ref.middle1024.format_s": (0.05, "s"),
    "ref.middle1024.format_mb": (2.09, "MB"),
    "ref.middle1024.parse_s": (13.7, "s"),
    "ref.middle1024.evaluate_mod_s": (0.047, "s"),
    "ref.middle4096.build_s": (0.31, "s"),
    "ref.middle4096.dag_nodes": (100_684, "count"),
    "ref.middle4096.sampling32_s": (10.4, "s"),
    "ref.canonical24.build_s": (8.6, "s"),
    "ref.canonical24.parse_s": (10.8, "s"),
    "ref.verify_theorem1_200_s": (2.4, "s"),
    "ref.special_values_255_s": (1.05, "s"),
}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def measure() -> tuple[dict, list]:
    """Reference values by name, and a list of failed checks."""
    got, problems = {}, []

    e, got["ref.middle1024.build_s"] = timed(F.build_expression, 1024, "middle")
    terms, got["ref.middle1024.metric_terms_s"] = timed(F.metric_terms, e)
    got["ref.middle1024.dag_nodes"], got["ref.middle1024.printed_terms"], _ = own_walk(
        e, random_point(1024, random.Random(0)))
    text, got["ref.middle1024.format_s"] = timed(F.format_expression, e)
    got["ref.middle1024.format_mb"] = len(text) / 1e6
    parsed, got["ref.middle1024.parse_s"] = timed(F.parse, text)
    if parsed != e or terms != F.recurrence_T(1024):
        problems.append("middle n=1024 round trip or term count")
    del parsed, text
    point = F.Assignment.random(F.edges(1024), PRIME, random.Random(1))
    value, got["ref.middle1024.evaluate_mod_s"] = timed(F.evaluate_mod, e, point)
    if value != F.oracle_eval_mod(1024, point):
        problems.append("middle n=1024 evaluate_mod != oracle")

    e, got["ref.middle4096.build_s"] = timed(F.build_expression, 4096, "middle")
    got["ref.middle4096.dag_nodes"] = own_walk(e, random_point(4096, random.Random(0)))[0]
    ok, got["ref.middle4096.sampling32_s"] = timed(
        F.equivalent_by_sampling, e, 4096, trials=32, prime=PRIME, seed=0)
    if not ok:
        problems.append("middle n=4096 not equivalent")
    del e

    e, got["ref.canonical24.build_s"] = timed(F.canonical_expression, 24)
    text = F.format_expression(e)
    parsed, got["ref.canonical24.parse_s"] = timed(F.parse, text)
    if parsed != e:
        problems.append("canonical n=24 round trip")
    del e, parsed, text

    report, got["ref.verify_theorem1_200_s"] = timed(F.verify_theorem1, 200)
    if not report.ok:
        problems.append("verify_theorem1(200)")
    report, got["ref.special_values_255_s"] = timed(F.special_values, 255)
    if not report.groups_ok:
        problems.append("special_values(255)")
    return got, problems


def main() -> int:
    got, problems = measure()
    out = {}
    for name, (want, unit) in ROADMAP.items():
        ratio = got[name] / want
        flag = not (1 / FLAG_RATIO <= ratio <= FLAG_RATIO)
        out[name] = {"value": got[name], "unit": unit, "roadmap": want,
                     "ratio": ratio, "off_by_2x": flag}
        print(f"{name:<34} {got[name]:>12.6g} {unit:<5} roadmap {want:>10g}  "
              f"x{ratio:.2f}{'  <-- off by more than 2x' if flag else ''}")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "reference": out}))
    return 1 if problems else 0
