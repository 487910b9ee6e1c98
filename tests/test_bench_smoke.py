"""Smoke test of the benchmark harness in bench/: a quick traced run of
every workload must finish, check every answer and report every declared
per-layer metric.  Only the schema is checked, never a timing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_traced_run_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--quick", "--seconds", "1", "--trace", "1", "--seed", "7"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {f"{w}.{m['name']}" for w in workloads for m in spec["per_layer"]}
    assert expected <= set(result["metrics"])
    for name in expected:
        metric = result["metrics"][name]
        assert isinstance(metric["value"], (int, float))
        assert metric["unit"]
