"""Every ``BENCH_<n>.json`` at the repository root is evidence for a speedup.

Each is read by people comparing measurements across changes, so each must
parse as JSON and say what changed, what it claims (null when it claims
nothing), the commands that produced its numbers, the host they ran on and
the commit they were compared against.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name))


def test_bench_files_found():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_carries_its_provenance(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert {"change", "claim", "commands", "host", "parent_commit"} <= record.keys()
    for key in ("change", "host", "parent_commit"):
        assert isinstance(record[key], str) and record[key].strip(), key
    assert record["claim"] is None or isinstance(record["claim"], str)
    assert record["commands"]
