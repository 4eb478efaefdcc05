"""Spans around the benchmark's calls into each fibexpr layer.

While `patched` is active, the public functions below are replaced, in the
module namespace their callers read them from, by wrappers that record one
span per call: name, start, end, parent span and operation id.  Spans stay
in memory and are written out when the run ends.  Nothing inside fibexpr
changes; the wrappers live in the benchmark's own files.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

# (module, attribute, span name, count taken from the result or None).  The
# module is the namespace the caller looks the name up in: the benchmark
# calls the package's names, and the library's own internal calls read
# their module globals (e.g. graph.equivalent_by_sampling -> graph.evaluate_mod).
PATCHES = (
    ("fibexpr", "build_expression", "optimize.build_expression", None),
    ("fibexpr.optimize", "decompose", "decompose.decompose", None),
    ("fibexpr.optimize", "decompose_gd", "decompose.decompose_gd", None),
    ("fibexpr.graph", "canonical_expression", "graph.canonical_expression", None),
    ("fibexpr", "format_expression", "expr.format_expression", None),
    ("fibexpr", "metric_terms", "expr.metric_terms", None),
    ("fibexpr", "metric_plus", "expr.metric_plus", None),
    ("fibexpr", "parse", "expr.parse", None),
    ("fibexpr", "equivalent_by_sampling", "graph.equivalent_by_sampling", None),
    ("fibexpr", "equivalent_by_expansion", "graph.equivalent_by_expansion", None),
    ("fibexpr.graph", "evaluate_mod", "expr.evaluate_mod", None),
    ("fibexpr.graph", "oracle_eval_mod", "graph.oracle_eval_mod", None),
    ("fibexpr.graph", "expand", "expr.expand", len),
    ("fibexpr.graph", "enumerate_paths", "graph.enumerate_paths", len),
    ("fibexpr.optimize", "IntervalTable", "optimize.interval_table", None),
    ("fibexpr", "special_values", "optimize.special_values", None),
    ("fibexpr", "verify_theorem1", "optimize.verify_theorem1", lambda r: r.checked),
)
ASSIGNMENT_SPAN = "expr.assignment_random"

# Per-layer metrics: median seconds per call of these spans ...
DURATION_SPANS = (
    "decompose.decompose", "decompose.decompose_gd", "graph.oracle_eval_mod",
    ASSIGNMENT_SPAN, "graph.enumerate_paths", "graph.canonical_expression",
    "expr.evaluate_mod", "expr.metric_terms", "expr.format_expression", "expr.parse",
    "expr.expand", "optimize.interval_table", "optimize.special_values",
    "optimize.verify_theorem1",
)
# ... and median self seconds per call of the spans that have children.
SELF_SPANS = (
    "graph.equivalent_by_sampling", "graph.equivalent_by_expansion",
    "optimize.build_expression", "optimize.special_values", "optimize.verify_theorem1",
)


class Tracer:
    """In-memory span recorder; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, count]
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


@contextmanager
def patched(tracer: Tracer):
    """Route the PATCHES names and Assignment.random through tracer spans."""
    saved = []
    try:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        assignment = importlib.import_module("fibexpr.expr").Assignment
        original = assignment.__dict__["random"]
        saved.append((assignment, "random", original))
        assignment.random = classmethod(tracer.wrap(ASSIGNMENT_SPAN, original.__func__))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, ops: list, paired: list) -> dict:
    """Per-layer metrics from the spans.

    `ops` holds (phase, Outcome) per operation id, phase 'workload' or
    'coverage'; a metric the workload's own operations never produce is read
    from the coverage operations.  `paired` holds (untraced, traced, cli)
    seconds of the same operations.
    """
    selfs = tracer.self_times()

    def span_samples(phase, name, value):
        return [value(s, i) for i, s in enumerate(tracer.spans)
                if s[0] == name and s[4] >= 0 and ops[s[4]][0] == phase]

    def op_samples(phase, value):
        return [v for p, o in ops if p == phase for v in [value(o)] if v is not None]

    def built_by_decompose(o):
        return o.op.method not in ("", "canonical") and "dag_nodes" in o.counts

    def per_char(key):
        return lambda s, i: ops[s[4]][1].counts[key] / duration(s, i) / 1e6

    def duration(s, i):
        return s[2] - s[1]

    def self_time(s, i):
        return selfs[i]

    sources = {}
    for name in DURATION_SPANS:
        sources[f"{name}_s"] = ("s", lambda ph, n=name: span_samples(ph, n, duration))
    for name in SELF_SPANS:
        sources[f"{name}.self_s"] = ("s", lambda ph, n=name: span_samples(ph, n, self_time))
    sources.update({
        "expr.evaluate_mod_nodes_per_s": ("1/s", lambda ph: span_samples(
            ph, "expr.evaluate_mod",
            lambda s, i: ops[s[4]][1].counts["evaluated_nodes"] / duration(s, i))),
        "expr.format_mb_s": ("MB/s", lambda ph: span_samples(
            ph, "expr.format_expression", per_char("format_chars"))),
        "expr.parse_mb_s": ("MB/s", lambda ph: span_samples(
            ph, "expr.parse", per_char("parse_chars"))),
        "expr.expand_monomials": ("count", lambda ph: [
            v for v in span_samples(ph, "expr.expand", lambda s, i: s[5]) if v is not None]),
        "optimize.intervals_checked": ("count", lambda ph: span_samples(
            ph, "optimize.verify_theorem1", lambda s, i: s[5])),
        "decompose.dag_nodes": ("count", lambda ph: op_samples(
            ph, lambda o: o.counts["dag_nodes"] if built_by_decompose(o) else None)),
        "expr.printed_terms": ("count", lambda ph: op_samples(
            ph, lambda o: o.counts.get("printed_terms"))),
        "expr.share_ratio": ("ratio", lambda ph: op_samples(
            ph, lambda o: o.counts["printed_terms"] / o.counts["dag_nodes"]
            if built_by_decompose(o) else None)),
        "expr.parsed_nodes": ("count", lambda ph: op_samples(
            ph, lambda o: o.counts.get("parsed_nodes"))),
    })
    out = {}
    for metric, (unit, samples) in sources.items():
        values = samples("workload") or samples("coverage")
        out[metric] = {"value": median(values), "unit": unit}
    out["cli.overhead_s"] = {"value": median([c - u for u, _, c in paired]), "unit": "s"}
    out["trace.overhead_s"] = {"value": median([t - u for u, t, _ in paired]), "unit": "s"}
    return out


def self_share(tracer: Tracer, ops: list) -> dict:
    """Share of the workload operations' timed seconds spent as self time in
    each span, and outside every span (the benchmark's own glue)."""
    selfs = tracer.self_times()
    total = sum(o.seconds for phase, o in ops if phase == "workload")
    shares: dict[str, float] = {}
    covered = 0.0
    for i, s in enumerate(tracer.spans):
        if s[4] >= 0 and ops[s[4]][0] == "workload":
            shares[s[0]] = shares.get(s[0], 0.0) + selfs[i] / total
            if s[3] < 0:
                covered += (s[2] - s[1]) / total
    shares["(outside spans)"] = 1.0 - covered
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_trace(path: Path, tracer: Tracer, ops: list, shares: dict):
    """Spans, operations and self-time shares of one traced run, as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                   "op": s[4], "count": s[5]} for i, s in enumerate(tracer.spans)],
        "ops": [{"id": i, "phase": phase, "op": vars(o.op), "seconds": o.seconds,
                 "ok": o.ok, "counts": o.counts} for i, (phase, o) in enumerate(ops)],
        "self_share": shares,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
