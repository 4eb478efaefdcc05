"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with -s to see one pass/fail line per criterion; `fibexpr repro` prints
the same lines, both from `repro.run`.
"""

import pytest

from fibexpr.repro import CRITERIA, run


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"criterion_{num:02d}" for num, *_ in CRITERIA])
def test_criterion(criterion):
    result = run(criterion)
    print(result)
    assert result.passed, str(result)
