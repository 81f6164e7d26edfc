"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q

Traced runs of one seed must repeat their work counts and output digests
exactly; the result line must follow BENCHMARK.json; cli-corpus must fail
exactly its near-cutoff states; and without the package sources the
benchmark must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
WORK_COUNTS = (
    "derivation.merge.attempts",
    "derivation.merge.effective",
    "derivation.terms",
    "derivation.classes",
    "derivation.replay.calls",
    "schmidt.calls",
    "schmidt.rank_mismatch",
    "envariance.check.calls",
    "envariance.oracle.calls",
    "states.apply.calls",
    "finegrain.derivation_cache.size",
    "gleason.bases",
)


def run(workload: str, seed: int, trace: int, seconds: float = 1, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), None)
    return proc, detail, (json.loads(lines[-1]) if proc.returncode == 0 else None)


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run(w, 7, 1) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_and_digests_repeat(traced_twice, workload):
    (p1, d1, r1), (p2, d2, r2) = traced_twice[workload]
    assert p1.returncode == 0 and p2.returncode == 0, p1.stderr + p2.stderr
    assert r1["correct"] and r2["correct"]
    for name in WORK_COUNTS:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name
    assert d1["digest_sha256"] == d2["digest_sha256"] == d1["digest_sha256_untraced"]
    assert set(r1["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}


def test_end_to_end_result_line():
    proc, detail, result = run("gleason-audit", 3, 0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for line in proc.stdout.splitlines()[:-1]:
        assert line.split()[0] in ("env", "detail", "metric")


def test_cli_corpus_fails_exactly_the_near_cutoff_states(traced_twice):
    _, detail, result = traced_twice["cli-corpus"][0]
    assert detail["failed_outside_near_cutoff"] == 0
    assert detail["fail_frac"] == 1 / 8
    # every schmidt call on a near-cutoff file misses the prescribed rank
    assert result["metrics"]["schmidt.rank_mismatch"]["value"] == result["failed"] // 2


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc, _, result = run("cli-corpus", 1, 0, cwd=bare)
        assert proc.returncode != 0 and result is None and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
