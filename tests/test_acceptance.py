"""Release gate: one test per acceptance criterion, each printing a pass/fail line.

All checks are exact; each criterion also enforces its wall-clock budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or via
the CLI as ``springerfiber selftest``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from springerfiber import acceptance

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "spec", acceptance.CRITERIA, ids=[f"criterion-{c.number}" for c in acceptance.CRITERIA]
)
def test_criterion(spec):
    result = acceptance.run_criterion(spec)
    print(result.line())
    assert result.passed, result.detail


def test_a_broken_library_fails_under_python_O():
    # python -O strips assert statements; the criteria must still fail, and name the case
    script = (
        "from springerfiber import acceptance\n"
        "from springerfiber.partitions import Partition\n"
        "Partition.springer_dim = lambda self: 0\n"
        "print(acceptance.run_criterion(acceptance.CRITERIA[0]).line())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert done.stdout.startswith("FAIL criterion 1:"), done.stdout
    assert "dimension of (2,2,1,1): got 0, expected 7" in done.stdout
