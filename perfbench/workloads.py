"""Execution of benchmark operations and the verdict gate.

Each operation makes the library calls that one CLI command makes, timed
with tracing left to the caller, and every result is checked against an
answer that does not come from the timed code path:

* the benchmark's own walk of the expression (distinct nodes, printed terms
  and the value at a random point modulo a prime) against its own
  linear-time path-polynomial recurrence;
* `recurrence_T` / `recurrence_P` for middle-split sizes and DP minima;
* the middle vertex set for T-argmins;
* the closed-form groups of special values (7, 13-15, 25-31, 49-63, ...);
* the round trip ``parse(format(e)) == e``.

A negative control is correct only when the verifier rejects it (NOT
EQUIVALENT or ``DuplicateMonomial``) and the benchmark's own walk confirms
that the mutation changed the polynomial, so a verifier that passes
vacuously fails the run.
"""

from __future__ import annotations

import json
import random
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import fibexpr as F

from opgen import Op

PRIME = F.DEFAULT_PRIME
EXPANSION_MAX_N = 16    # formula-roundtrip verifies by expansion up to this n
ROUNDTRIP_TRIALS = 4    # and by modular sampling above it


@dataclass
class Outcome:
    """Result of one operation: timed seconds, verdict-gate result, counts."""

    op: Op
    seconds: float
    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------- own answers

def own_walk(e, values: dict, prime: int = PRIME) -> tuple[int, int, int]:
    """(distinct nodes, printed terms, value mod prime) of e by an iterative
    walk memoized on node identity; shares no code with fibexpr's folds."""
    terms: dict[int, int] = {}
    vals: dict[int, int] = {}
    stack = [(e, False)]
    while stack:
        x, ready = stack.pop()
        key = id(x)
        if key in terms:
            continue
        if isinstance(x, (F.Sum, F.Product)):
            if not ready:
                stack.append((x, True))
                stack.extend((c, False) for c in x.children if id(c) not in terms)
                continue
            kids = [id(c) for c in x.children]
            terms[key] = sum(terms[k] for k in kids)
            if isinstance(x, F.Sum):
                vals[key] = sum(vals[k] for k in kids) % prime
            else:
                v = 1
                for k in kids:
                    v = v * vals[k] % prime
                vals[key] = v
        elif isinstance(x, F.Term):
            terms[key], vals[key] = 1, values[x.label] % prime
        else:  # UNIT or ZERO
            terms[key], vals[key] = 0, (1 if x is F.UNIT else 0)
    return len(terms), terms[id(e)], vals[id(e)]


def random_point(n: int, rng: random.Random, prime: int = PRIME) -> dict:
    """Random nonzero values for every edge label of the n-vertex graph."""
    labels = [F.Label("a", v) for v in range(1, n)] + [F.Label("b", v) for v in range(1, n - 1)]
    return {lab: rng.randrange(1, prime) for lab in labels}


def own_oracle(n: int, values: dict, prime: int = PRIME) -> int:
    """Path polynomial at a point: V(k) = a_{k-1} V(k-1) + b_{k-2} V(k-2)."""
    prev, cur = 1, (values[F.Label("a", 1)] if n > 1 else 1) % prime
    for k in range(3, n + 1):
        prev, cur = cur, (values[F.Label("a", k - 1)] * cur
                          + values[F.Label("b", k - 2)] * prev) % prime
    return cur


def canonical_sizes(n: int) -> tuple[int, int]:
    """(terms, plus) of the sequential-paths expression: the total length of
    all paths, and the path count minus one."""
    count = {1: 1, 2: 1}
    length = {1: 0, 2: 1}
    for k in range(3, n + 1):
        count[k] = count[k - 1] + count[k - 2]
        length[k] = length[k - 1] + count[k - 1] + length[k - 2] + count[k - 2]
    return length[n], count[n] - 1


def middle_set(n: int) -> set:
    """Middle vertex (odd interval length) or both middles of (1, n)."""
    return {(n + 1) // 2} if (n - 1) % 2 == 0 else {n // 2, n // 2 + 1}


def special_set(limit: int) -> set:
    """Closed-form special values up to limit: groups start at (7, 7) and
    each next group spans (2f - 1, 2l + 1)."""
    out: set = set()
    first, last = 7, 7
    while first <= limit:
        out.update(range(first, min(last, limit) + 1))
        first, last = 2 * first - 1, 2 * last + 1
    return out


def intervals_up_to(n_max: int) -> int:
    """Intervals of length >= 3 over all graphs n = 3..n_max."""
    return sum((n - 1) * (n - 2) // 2 for n in range(3, n_max + 1))


# ------------------------------------------------------------------ mutations

def mutate_dag(e, kind: str, rng: random.Random):
    """Drop one top-level summand, or multiply one by an extra label."""
    parts = list(e.children)
    k = rng.randrange(len(parts))
    if kind == "drop-summand":
        del parts[k]
    else:
        parts[k] = F.product([parts[k], F.Term(F.Label("a", 1))])
    return F.sumof(parts)


_LABEL = re.compile(r"([ab])(\d+)")
_PLUS = re.compile(r"\+")


def mutate_text(text: str, n: int, kind: str, rng: random.Random) -> str:
    """Swap a<->b in one label (keeping it an edge of the graph), or delete
    the summand that follows one '+'."""
    if kind == "swap-label":
        spots = [m for m in _LABEL.finditer(text)
                 if m.group(1) == "b" or int(m.group(2)) <= n - 2]
        m = rng.choice(spots)
        swapped = ("a" if m.group(1) == "b" else "b") + m.group(2)
        return text[:m.start()] + swapped + text[m.end():]
    start = rng.choice([m.start() for m in _PLUS.finditer(text)])
    depth, end = 0, start + 1
    while end < len(text):
        c = text[end]
        if c == "(":
            depth += 1
        elif c == ")":
            if depth == 0:
                break
            depth -= 1
        elif c == "+" and depth == 0:
            break
        end += 1
    return text[:start] + text[end:]


# ----------------------------------------------------------------- operations

def _modeval(op: Op) -> Outcome:
    rng = random.Random(op.mutation_seed)
    t0 = time.perf_counter()
    e = F.build_expression(op.n, op.method, m=op.m, seed=op.seed)
    t1 = time.perf_counter()
    target = mutate_dag(e, op.mutation, rng) if op.negative else e
    t2 = time.perf_counter()
    verdict = F.equivalent_by_sampling(target, op.n, trials=op.trials, prime=PRIME, seed=0)
    t3 = time.perf_counter()

    point = random_point(op.n, rng)
    nodes, terms, value = own_walk(target, point)
    truly_equal = value == own_oracle(op.n, point)
    out = Outcome(op, (t1 - t0) + (t3 - t2), True,
                  counts={"dag_nodes": nodes, "printed_terms": terms, "evaluated_nodes": nodes})
    if op.negative:
        if truly_equal:
            out.ok, out.detail = False, "mutation left the polynomial unchanged"
        elif verdict:
            out.ok, out.detail = False, "negative control passed the verifier"
    elif not truly_equal:
        out.ok, out.detail = False, "built expression differs from the oracle"
    elif not verdict:
        out.ok, out.detail = False, "verifier rejected a correct expression"
    elif op.method == "middle" and terms != F.recurrence_T(op.n):
        out.ok, out.detail = False, f"{terms} terms, recurrence_T says {F.recurrence_T(op.n)}"
    return out


def _roundtrip(op: Op) -> Outcome:
    rng = random.Random(op.mutation_seed)
    t0 = time.perf_counter()
    e = F.build_expression(op.n, op.method, m=op.m)
    text = F.format_expression(e)
    terms, plus = F.metric_terms(e), F.metric_plus(e)
    t1 = time.perf_counter()
    source = mutate_text(text, op.n, op.mutation, rng) if op.negative else text
    t2 = time.perf_counter()
    parsed = F.parse(source)
    try:
        if op.n <= EXPANSION_MAX_N:
            verdict = F.equivalent_by_expansion(parsed, op.n)
        else:
            verdict = F.equivalent_by_sampling(parsed, op.n, trials=ROUNDTRIP_TRIALS,
                                               prime=PRIME, seed=0)
    except F.DuplicateMonomial:
        verdict = False
    t3 = time.perf_counter()

    point = random_point(op.n, rng)
    dag_nodes, own_terms, _ = own_walk(e, point)
    parsed_nodes, _, value = own_walk(parsed, point)
    out = Outcome(op, (t1 - t0) + (t3 - t2), True, counts={
        "dag_nodes": dag_nodes, "printed_terms": own_terms, "parsed_nodes": parsed_nodes,
        "evaluated_nodes": parsed_nodes, "format_chars": len(text), "parse_chars": len(source)})
    expected = None
    if op.method == "middle":
        expected = (F.recurrence_T(op.n), F.recurrence_P(op.n))
    elif op.method == "canonical":
        expected = canonical_sizes(op.n)
    if op.negative:
        if value == own_oracle(op.n, point):
            out.ok, out.detail = False, "mutation left the polynomial unchanged"
        elif verdict:
            out.ok, out.detail = False, "negative control passed the verifier"
    elif parsed != e:
        out.ok, out.detail = False, "parse(format(e)) != e"
    elif not verdict:
        out.ok, out.detail = False, "verifier rejected a correct formula"
    elif terms != own_terms:
        out.ok, out.detail = False, f"metric_terms {terms} != printed terms {own_terms}"
    elif expected is not None and (terms, plus) != expected:
        out.ok, out.detail = False, f"sizes {(terms, plus)} != closed form {expected}"
    return out


def _optimize(op: Op) -> Outcome:
    t0 = time.perf_counter()
    table = F.min_metric(op.n, op.metric)
    low = table.min_value()
    arg = set(table.argmin_vertices())
    t1 = time.perf_counter()
    want = F.recurrence_T(op.n) if op.metric == "T" else F.recurrence_P(op.n)
    middle = middle_set(op.n)
    out = Outcome(op, t1 - t0, True)
    if low != want:
        out.ok, out.detail = False, f"min {low} != recurrence {want}"
    elif op.metric == "T" and arg != middle:
        out.ok, out.detail = False, f"T-argmin {sorted(arg)} != middle {sorted(middle)}"
    elif op.metric == "P" and not (middle <= arg and (arg > middle) == (op.n in special_set(op.n))):
        out.ok, out.detail = False, f"P-argmin {sorted(arg)} disagrees with the special groups"
    return out


def _special(op: Op) -> Outcome:
    t0 = time.perf_counter()
    report = F.special_values(op.n)
    t1 = time.perf_counter()
    out = Outcome(op, t1 - t0, True)
    if report.special != sorted(special_set(op.n)) or not report.groups_ok:
        out.ok, out.detail = False, f"special values {report.special} != closed form"
    return out


def _theorem1(op: Op) -> Outcome:
    t0 = time.perf_counter()
    report = F.verify_theorem1(op.n)
    t1 = time.perf_counter()
    out = Outcome(op, t1 - t0, True, counts={"intervals_checked": report.checked})
    if not report.ok or report.checked != intervals_up_to(op.n):
        out.ok, out.detail = False, (f"{len(report.violations)} violations, "
                                     f"{report.checked} of {intervals_up_to(op.n)} intervals")
    return out


RUNNERS = {
    "verify-modeval": _modeval,
    "roundtrip": _roundtrip,
    "optimize": _optimize,
    "special": _special,
    "theorem1": _theorem1,
}


def run_op(op: Op) -> Outcome:
    """Execute one operation through the library and apply the verdict gate."""
    return RUNNERS[op.kind](op)


# -------------------------------------------------------------- CLI execution

def cli_args(op: Op, formula: Path | None = None) -> list[list[str]] | None:
    """Argument lists of the CLI commands equivalent to a positive op, or
    None when no CLI command makes the same calls."""
    if op.negative or op.kind == "theorem1":
        return None
    method = ["--method", op.method] + (["--m", str(op.m)] if op.m else []) + (
        ["--seed", str(op.seed)] if op.seed is not None else [])
    n = ["--n", str(op.n)]
    if op.kind == "verify-modeval":
        return [["verify", *n, *method, "--mode", "modeval", "--trials", str(op.trials)]]
    if op.kind == "roundtrip":
        mode = "expand" if op.n <= EXPANSION_MAX_N else "modeval"
        return [["expr", *n, *method, "--out", str(formula)],
                ["verify", *n, "--formula", str(formula), "--mode", mode,
                 "--trials", str(ROUNDTRIP_TRIALS)]]
    if op.kind == "optimize":
        return [["optimize", *n, "--metric", op.metric, "--format", "json"]]
    return [["special", "--n-max", str(op.n), "--format", "json"]]


def run_cli(op: Op, workdir: Path) -> tuple[float, bool]:
    """Time op through click's CliRunner on fibexpr.cli.main; (seconds, ok)."""
    from click.testing import CliRunner
    from fibexpr.cli import main

    runner = CliRunner()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        commands = cli_args(op, Path(tmp) / "formula.txt")
        t0 = time.perf_counter()
        results = [runner.invoke(main, args) for args in commands]
        seconds = time.perf_counter() - t0
    ok = all(r.exit_code == 0 for r in results)
    last = results[-1].output
    if op.kind in ("verify-modeval", "roundtrip"):
        ok = ok and last.startswith("EQUIVALENT")
    elif op.kind == "optimize":
        want = F.recurrence_T(op.n) if op.metric == "T" else F.recurrence_P(op.n)
        ok = ok and json.loads(last)["min"] == want
    else:
        ok = ok and json.loads(last)["special"] == sorted(special_set(op.n))
    return seconds, ok
