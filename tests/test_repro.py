"""repro.run, the one place that times a criterion, judges it and makes its
line, and `fibexpr repro`, which prints those lines."""

import re
import time

import pytest
from click.testing import CliRunner

from fibexpr import repro
from fibexpr.cli import main
from fibexpr.repro import CriterionResult, run


def passes():
    return True, "fine"


def fails():
    return False, "wrong"


def raises():
    raise ZeroDivisionError("no luck")


def passes_slowly():
    time.sleep(0.001)
    return True, "fine"


@pytest.mark.parametrize("criterion, passed, detail", [
    ((1, "passes", passes, None), True, "fine"),
    ((2, "fails", fails, 60.0), False, "wrong"),
    ((3, "raises", raises, 60.0), False, "raised ZeroDivisionError: no luck"),
    ((4, "over budget", passes_slowly, 0), False, "fine [over 0s budget]"),
], ids=["passes", "fails", "raises", "over_budget"])
def test_run_judges_one_criterion(criterion, passed, detail):
    result = run(criterion)
    assert (result.number, result.name, result.passed, result.detail) == (
        criterion[0], criterion[1], passed, detail)
    assert result.seconds >= 0


@pytest.mark.parametrize("result, line", [
    (CriterionResult(3, "n=7 pair", True, "middle=19/7", 1.234),
     "[PASS]  3. n=7 pair (1.23s) middle=19/7"),
    (CriterionResult(12, "round-trip", False, "raised ValueError: x", 0.5),
     "[FAIL] 12. round-trip (0.50s) raised ValueError: x"),
])
def test_str_is_the_printed_line(result, line):
    assert str(result) == line


@pytest.mark.parametrize("criteria, exit_code, lines", [
    ([(1, "passes", passes, None), (2, "fails", fails, None)], 1,
     ["[PASS]  1. passes fine", "[FAIL]  2. fails wrong", "1/2 criteria passed"]),
    ([(1, "passes", passes, None)], 0, ["[PASS]  1. passes fine", "1/1 criteria passed"]),
])
def test_repro_prints_one_line_per_criterion(monkeypatch, criteria, exit_code, lines):
    monkeypatch.setattr(repro, "CRITERIA", criteria)
    result = CliRunner().invoke(main, ["repro"])
    assert result.exit_code == exit_code
    assert re.sub(r" \(\d+\.\d\ds\)", "", result.output).splitlines() == lines
