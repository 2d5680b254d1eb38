"""Smoke test of the benchmark itself.

Runs every workload once on tiny inputs, untraced and traced, and asserts
the result schema against BENCHMARK.json and that every output check
passed. It never asserts a timing. Run it with

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_schema_and_checks(trace, kind):
    results = smoke(trace)
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] is True, workload
        assert result["failed"] == 0, workload
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1, workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (workload, name)
