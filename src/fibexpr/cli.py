"""Command-line front end.

Subcommands: expr, verify, optimize, special, table, fit, repro.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import __version__
from .expr import (
    DEFAULT_PRIME,
    ExprError,
    ParseError,
    format_expression,
    formula_length,
    metric_plus,
    metric_terms,
    parse,
)
from .graph import check_sampling, verify
from .optimize import (
    build_expression,
    complexity_table,
    exponent_fit,
    min_metric,
    special_values,
)

MAX_CONSOLE_FORMULA = 10_000
MAX_FORMULA_FILE = 2**28  # characters written by expr --out

METHODS = ("canonical", "middle", "fixed", "leftmost", "seeded", "gd")


def default_prime() -> int:
    raw = os.environ.get("FIBEXPR_PRIME", str(DEFAULT_PRIME))
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"FIBEXPR_PRIME must be an integer, got {raw!r}")


def _write(path: Path, text: str) -> None:
    """Write text to path as UTF-8; a failed write is an ExprError, so it
    exits 2 with one line that names the file."""
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ExprError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _exact_int_strings():
    """Lift the interpreter's limit on the digits of int <-> str (CPython
    3.10.7+) inside the block, so metrics of any size print; restore it after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _method_opts(fn):
    fn = click.option("--method", type=click.Choice(METHODS), default="middle",
                      show_default=True)(fn)
    fn = click.option("--m", type=int, default=None, help="parts per step (gd only)")(fn)
    fn = click.option("--tie", type=click.Choice(["low", "high"]), default="low",
                      show_default=True, help="middle tie-break for even intervals")(fn)
    fn = click.option("--seed", type=int, default=None, help="seed (seeded only)")(fn)
    fn = click.option("--vertex", type=int, default=None,
                      help="first-step vertex (fixed only)")(fn)
    return fn


class _Main(click.Group):
    """The command group.  An ExprError that a command leaves uncaught (an n,
    m or size outside the domain of the operation, a method without the
    option it needs, or an --out or --formula file that cannot be written or
    decoded) is a usage error: exit 2 with its message, no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ExprError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Generate, optimize, and verify algebraic expressions of Fibonacci graphs."""


@main.command("expr")
@click.option("--n", type=int, required=True)
@_method_opts
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="write the formula to this file")
def cmd_expr(n, method, m, tie, seed, vertex, fmt, out):
    """Print an expression for the n-vertex graph with its complexity metrics.

    The text of the formula is built only when it is written to --out or is
    short enough to print; otherwise only its length is computed."""
    e = build_expression(n, method, m=m, tie=tie, seed=seed, vertex=vertex)
    with _exact_int_strings():
        length = formula_length(e)
        if out is not None and length > MAX_FORMULA_FILE:
            raise ExprError(f"formula of {length} characters exceeds --out bound {MAX_FORMULA_FILE}")
        terms, plus = metric_terms(e), metric_plus(e)
        show_inline = length <= MAX_CONSOLE_FORMULA
        formula = format_expression(e) if show_inline or out is not None else None
        if out is not None:
            _write(out, formula + "\n")
        if fmt == "json":
            payload = {"n": n, "method": method, "terms": terms, "plus": plus}
            if show_inline:
                payload["formula"] = formula
            else:
                payload["formula_length"] = length
                if out is not None:
                    payload["formula_file"] = str(out)
            click.echo(json.dumps(payload))
        else:
            if show_inline:
                click.echo(formula)
            else:
                where = f", written to {out}" if out is not None else "; use --out to save it"
                click.echo(f"[formula of {length} characters{where}]")
            click.echo(f"terms={terms} plus={plus}")


@main.command("verify")
@click.option("--n", type=int, required=True)
@_method_opts
@click.option("--mode", type=click.Choice(["expand", "modeval"]), default="expand",
              show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--prime", type=int, default=None, help="modulus (default FIBEXPR_PRIME or 2^31-1)")
@click.option("--formula", "formula_file", type=click.Path(exists=True, dir_okay=False,
              path_type=Path), default=None,
              help="verify this formula file instead of generating one")
def cmd_verify(n, method, m, tie, seed, vertex, mode, trials, prime, formula_file):
    """Check an expression against the graph's canonical path polynomial."""
    if mode == "modeval":
        prime = default_prime() if prime is None else prime
        check_sampling(n, trials, prime)
    if formula_file is not None:
        try:
            e = parse(formula_file.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ExprError(f"cannot read {formula_file}: not UTF-8 at byte {exc.start}") from exc
        except ParseError as exc:
            raise click.UsageError(f"cannot parse {formula_file}: {exc}")
    else:
        e = build_expression(n, method, m=m, tie=tie, seed=seed, vertex=vertex)
    verdict = verify(e, n, mode, trials=trials, prime=prime)
    click.echo(str(verdict))
    if not verdict.equivalent:
        sys.exit(1)


@main.command("optimize")
@click.option("--n", type=int, required=True)
@click.option("--metric", type=click.Choice(["T", "P"]), default="T", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def cmd_optimize(n, metric, fmt):
    """Exact minimum over the binary decomposition family, with argmin vertices."""
    table = min_metric(n, metric)
    low = table.min_value()
    arg = sorted(table.argmin_vertices())
    if fmt == "json":
        click.echo(json.dumps({"n": n, "metric": metric, "min": low, "argmin": arg}))
    else:
        click.echo(f"min {metric}({n}) = {low}, argmin vertices = {arg}")


@main.command("special")
@click.option("--n-max", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def cmd_special(n_max, fmt):
    """Values of n with several minimum-plus first-step decompositions."""
    report = special_values(n_max)
    if fmt == "json":
        click.echo(json.dumps({"n_max": n_max, "special": report.special,
                               "groups": report.groups, "groups_ok": report.groups_ok}))
    else:
        click.echo(",".join(map(str, report.special)))
        groups = " ".join(f"{f}..{l}" for f, l in report.groups)
        click.echo(f"groups: {groups} (recurrence fit: {'ok' if report.groups_ok else 'BROKEN'})")


@main.command("table")
@click.option("--n-max", type=int, required=True)
@click.option("--method", type=click.Choice(["canonical", "middle", "leftmost"]),
              default="middle", show_default=True, help="a method that needs no option")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def cmd_table(n_max, method, fmt, out):
    """Measured vs predicted complexity for n = 2..n_max."""
    rows = complexity_table(n_max, method)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "method", "T_measured", "P_measured",
                         "T_predicted", "P_predicted", "equivalent"])
        for r in rows:
            writer.writerow([r.n, r.method, r.t_measured, r.p_measured,
                             r.t_predicted, r.p_predicted, str(r.equivalent).lower()])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([vars(r) for r in rows]) + "\n"
    else:
        lines = [f"{'n':>5} {'T_meas':>8} {'P_meas':>8} {'T_pred':>8} {'P_pred':>8}  equiv"]
        for r in rows:
            lines.append(f"{r.n:>5} {r.t_measured:>8} {r.p_measured:>8} "
                         f"{r.t_predicted:>8} {r.p_predicted:>8}  {str(r.equivalent).lower()}")
        text = "\n".join(lines) + "\n"
    if out is not None:
        _write(out, text)
        click.echo(f"wrote {len(rows)} rows to {out}")
    else:
        click.echo(text, nl=False)


@main.command("fit")
@click.option("--m", type=int, required=True)
@click.option("--n-list", required=True, help="comma-separated increasing n values")
def cmd_fit(m, n_list):
    """Estimate the growth exponent of T(n) for the uniform GD method."""
    try:
        values = [int(x) for x in n_list.split(",")]
    except ValueError:
        raise click.UsageError(f"--n-list must be comma-separated integers, got {n_list!r}")
    slope = exponent_fit(m, values)
    click.echo(f"exponent ~= {slope:.3f} (m={m}, n={values})")


@main.command("repro")
def cmd_repro():
    """Run the full acceptance suite and print one pass/fail line per criterion."""
    from .repro import CRITERIA, run

    failed = 0
    for result in map(run, CRITERIA):
        click.echo(str(result))
        failed += not result.passed
    click.echo(f"{len(CRITERIA) - failed}/{len(CRITERIA)} criteria passed")
    if failed:
        sys.exit(1)
