"""fibexpr benchmark: closed-loop workloads with checked verdicts.

    python3 perfbench/run.py --workload modeval-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # every workload, one table
    python3 perfbench/run.py --reference                # ROADMAP reference points

One caller in one thread sends the next operation only after the previous
one finished (a closed loop).  Operations come in whole decks (see opgen)
until --seconds have passed and at least 100 have run, so p90 has ten
samples beyond it.  Every result goes through the verdict gate in
workloads; any wrong verdict or unexpected exception makes the run
incorrect and the exit code 1.

--trace 0 prints the end-to-end metrics; --trace 1 reruns the loop with
spans around every call into fibexpr and prints per-layer metrics, writing
the spans to perfbench/out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import opgen
from summary import tail_percentile

# workloads, tracing and reference import fibexpr, so they are imported only
# after main() has put this checkout's src/ first on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3    # fresh-interpreter set-ups after each deck; setup_s is their median
MIN_OPS = 100       # p90 with ten samples beyond it
PAIRED_OPS = 5      # operations timed untraced, traced and through the CLI

# Operations of every kind, run in every traced run so that each per-layer
# metric exists; they count only for layers the workload itself never calls.
COVERAGE = (
    dict(kind="verify-modeval", n=256, method="middle", trials=4),
    dict(kind="verify-modeval", n=256, method="gd", m=3, trials=2),
    dict(kind="roundtrip", n=12, method="canonical"),
    dict(kind="roundtrip", n=64, method="middle"),
    dict(kind="optimize", n=200, metric="T"),
    dict(kind="special", n=63),
    dict(kind="theorem1", n=40),
)


# Set-up as a user pays it: a fresh interpreter imports fibexpr and
# generates the workload's inputs.  Interpreter start-up is not counted.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import fibexpr, opgen
opgen.generate(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def setup(workload: str, seed: int):
    """Import fibexpr from this checkout and generate the workload's operations."""
    import fibexpr
    if Path(fibexpr.__file__).resolve().parent != SRC / "fibexpr":
        raise ImportError(f"fibexpr imported from {fibexpr.__file__}, not {SRC}")
    return opgen.generate(workload, seed)


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up timed in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload,
                           str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_decks(decks, seconds: float, execute, after_deck=lambda: None) -> list:
    """Closed loop over whole decks until `seconds` passed and MIN_OPS ran.

    Set-up probes run between decks so that they sample the machine over the
    whole run, as the operations do."""
    outcomes = []
    start = time.perf_counter()
    for deck in itertools.cycle(decks):
        outcomes.extend(execute(op) for op in deck)
        after_deck()
        if time.perf_counter() - start >= seconds and len(outcomes) >= MIN_OPS:
            return outcomes


def guarded(op):
    """run_op, with an unexpected exception recorded as a failed operation.

    A full collection follows every operation, untimed: each CLI command
    runs in its own process, so one operation's cyclic garbage should
    neither be collected during the next one nor add to its peak memory.
    """
    import workloads
    try:
        return workloads.run_op(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(op, float("nan"), False, "raised")
    finally:
        gc.collect()


def report_failures(outcomes):
    for o in outcomes:
        if not o.ok:
            print(f"WRONG: {o.op} -> {o.detail}", file=sys.stderr)


def end_to_end(outcomes, setup_times) -> dict:
    times = [o.seconds for o in outcomes if o.seconds == o.seconds]  # NaN: raised
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "op_p50_s": {"value": median(times), "unit": "s"},
        "op_p90_s": {"value": tail_percentile(times, 0.9), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced_run(decks, seconds: float, workload: str, seed: int):
    """Workload loop with spans, then the coverage and paired operations."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    ops: list = []

    def execute(op, phase="workload"):
        tracer.op = len(ops)
        ops.append((phase, None))
        outcome = guarded(op)
        ops[tracer.op] = (phase, outcome)
        return outcome

    with tracing.patched(tracer):
        outcomes = run_decks(decks, seconds, execute)
        coverage = [execute(opgen.Op(**spec), "coverage") for spec in COVERAGE]

    eligible = [op for op in decks[0] if workloads.cli_args(op, Path()) and op.trials <= 8]
    paired = []
    OUT.mkdir(parents=True, exist_ok=True)
    for op in random.Random(f"paired:{seed}").sample(eligible, min(PAIRED_OPS, len(eligible))):
        untraced = guarded(op)
        tracer.op = -1
        with tracing.patched(tracer):
            traced = guarded(op)
        cli_seconds, cli_ok = workloads.run_cli(op, OUT)
        if not cli_ok:
            print(f"WRONG: CLI {op}", file=sys.stderr)
        paired.append((untraced.seconds, traced.seconds, cli_seconds))
        outcomes += [untraced, traced, workloads.Outcome(op, cli_seconds, cli_ok)]

    metrics = tracing.layer_metrics(tracer, ops, paired)
    shares = tracing.self_share(tracer, ops)
    tracing.write_trace(OUT / f"trace-{workload}-seed{seed}.json", tracer, ops, shares)
    print("self-time share of the workload's timed seconds:")
    for name, share in shares.items():
        print(f"  {share:7.2%}  {name}")
    return outcomes + coverage, metrics


def run_one(args) -> int:
    decks = setup(args.workload, args.seed)
    if args.trace:
        outcomes, metrics = traced_run(decks, args.seconds, args.workload, args.seed)
    else:
        setup_times: list[float] = []

        def probe_setup():
            setup_times.extend(setup_seconds(args.workload, args.seed)
                               for _ in range(SETUP_PROBES))

        outcomes = run_decks(decks, args.seconds, guarded, probe_setup)
        metrics = end_to_end(outcomes, setup_times)
    report_failures(outcomes)

    failed = sum(not o.ok for o in outcomes)
    negatives = [o for o in outcomes if o.op.negative]
    correct = failed == 0 and (args.workload not in opgen.MUTATIONS or bool(negatives))
    print(f"{args.workload} seed={args.seed}: {len(outcomes)} operations, "
          f"{len(negatives)} negative controls, {failed} wrong "
          f"(error_rate {failed / len(outcomes):.4f})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one table and one JSON line."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in opgen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                       "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = m
    print(f"{'workload/metric':<52} {'value':>14}  unit")
    for name, m in merged["metrics"].items():
        print(f"{name:<52} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *opgen.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", action="store_true",
                        help="time the ROADMAP reference points instead of a workload")
    args = parser.parse_args(argv)

    if not (SRC / "fibexpr" / "__init__.py").is_file():
        print(f"error: no fibexpr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.reference:
        import reference
        return reference.main()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
