"""Smoke test of ``tools/cli_ab.py``: this tree against itself, one repetition."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tree_against_itself_gives_the_same_reports_and_a_full_table():
    proc = subprocess.run(
        [sys.executable, "tools/cli_ab.py", "src", "src", "--seed", "31", "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["ops"] == sum(row["ops"] for row in result["commands"].values()) == 128
    assert set(result["commands"]) == {
        "schmidt", "envariance swap", "envariance phase", "derive --ablate", "derive --disable",
    }
    for side in ("parent", "change"):
        assert 0 < result[side]["op_p50_ms"] <= result[side]["op_p99_ms"]
    assert result["ops_ratio"] > 0 and len(result["slowest"]) == 5
