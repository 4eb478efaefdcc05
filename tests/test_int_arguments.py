"""One rule for every integer argument: an int at or above the minimum.

A bool, a float or a string where an int is needed, and an int below the
minimum, raise the same ExprError subclass, never a bare TypeError and
never a silent acceptance.  `isinstance(x, int)` admits True, so no module
of the package uses it to test an argument.
"""

import ast
from pathlib import Path

import pytest

from fibexpr import (Assignment, ExprError, FixedMap, GdSpec, Seeded, decompose, decompose_gd,
                     edges, path_count, verify)
from fibexpr.decompose import InvalidM, InvalidVertexChoice, uniform_positions
from fibexpr.expr import Label
from fibexpr.graph import InvalidN, InvalidSampling
from fibexpr.optimize import IntervalTable

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fibexpr"

# name -> (a call taking the value, the class it raises, an int below the
# minimum, or None where every int is accepted)
TAKERS = {
    "Label index": (lambda x: Label("a", x), ExprError, 0),
    "decompose n": (decompose, InvalidN, 0),
    "path_count n": (path_count, InvalidN, 0),
    "IntervalTable n": (lambda x: IntervalTable(x, "T"), InvalidN, 0),
    "verify trials": (lambda x: verify(decompose(5), 5, "modeval", trials=x), InvalidSampling, 0),
    "GdSpec m": (lambda x: decompose_gd(9, GdSpec(x)), InvalidM, 1),
    "GdSpec first_positions": (lambda x: decompose_gd(9, GdSpec(3, (x, 6))),
                               InvalidVertexChoice, 1),
    "FixedMap vertex": (lambda x: decompose(9, FixedMap({(1, 9): x})), InvalidVertexChoice, 1),
    "Seeded seed": (Seeded, ExprError, None),
    "Assignment.random prime": (lambda x: Assignment.random(edges(5), x), ExprError, 1),
    "uniform_positions m": (lambda x: uniform_positions(1, 9, x), InvalidVertexChoice, 1),
    "uniform_positions p": (lambda x: uniform_positions(x, 9, 2), InvalidVertexChoice, 0),
    "uniform_positions q": (lambda x: uniform_positions(1, x, 2), InvalidVertexChoice, 1),
    "IntervalTable.min_value p": (lambda x: IntervalTable(9, "T").min_value(x, 9), ExprError, 0),
    "IntervalTable.min_value q": (lambda x: IntervalTable(9, "T").min_value(2, x), ExprError, 1),
    "IntervalTable.argmin_vertices p": (lambda x: IntervalTable(9, "P").argmin_vertices(x, 9),
                                        ExprError, 0),
    "IntervalTable.argmin_vertices q": (lambda x: IntervalTable(9, "P").argmin_vertices(2, x),
                                        ExprError, 1),
}
CASES = [(name, value) for name, (_, _, below) in TAKERS.items()
         for value in (True, 2.5, "3", below) if value is not None]


@pytest.mark.parametrize("name, value", CASES, ids=[f"{n}-{v!r}" for n, v in CASES])
def test_a_non_int_or_an_int_below_the_minimum_raises_the_argument_error(name, value):
    call, error, _ = TAKERS[name]
    with pytest.raises(ExprError) as info:
        call(value)
    assert info.type is error


@pytest.mark.parametrize("call", [lambda t: t.min_value(5, 12), lambda t: t.min_value(1, 100),
                                  lambda t: t.min_value(9, 10), lambda t: t.argmin_vertices(1, 10)])
def test_an_interval_end_past_n_raises_the_argument_error(call):
    table = IntervalTable(9, "T")
    with pytest.raises(ExprError, match=r"^need an interval end <= 9, got \d+$") as info:
        call(table)
    assert info.type is ExprError
    assert table.min_value(1, 9) == table.min_value() and table.min_value(9, 9) == 0


def int_isinstance_lines(source: str) -> list[int]:
    """The lines of calls isinstance(x, int) or isinstance(x, (..., int, ...))."""
    def names_int(node):
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(p, ast.Name) and p.id == "int" for p in parts)

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2 and names_int(node.args[1])]


def test_the_check_sees_an_int_isinstance():
    assert int_isinstance_lines("isinstance(n, int)\nisinstance(x, Sum)\ntype(n) is int\n"
                                "isinstance(self.m, (str, int))\n") == [1, 4]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_tests_an_argument_with_isinstance_int(module):
    assert int_isinstance_lines(module.read_text(encoding="utf-8")) == []

