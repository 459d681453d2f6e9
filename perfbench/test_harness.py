"""Smoke test of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_harness.py

Runs every workload once untraced and once traced, at the smallest size the
harness allows (one second: one pass, five blocks for ``queries``), with a
fixed seed.  Every declared metric must be present with its unit, and no
check may fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_without_failures(workload, trace):
    result, text = bench(workload, trace)
    declared = PER_LAYER if trace else END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert f"{'failed_frac':28s} {0:14.6f} ratio" in text


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
