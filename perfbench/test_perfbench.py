"""Self-test of the benchmark at a tiny fleet size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--tiny", "--seconds", "0.1"]


def bench(workload: str, *extra: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, group):
    code, result, output = bench(workload, "--trace", trace)
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, output
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, name
        assert isinstance(entry["value"], (int, float)), name
        if group == "end_to_end":
            assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_corrupted_scores_count_as_failed(workload):
    code, result, output = bench(workload, "--trace", "0", "--corrupt-scores")
    assert code == 1, output
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "ops_failed_frac" in output and "CHECK FAILED" in output
