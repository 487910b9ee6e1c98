"""The benchmark's own tests: schema and correctness, never timings.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import common

common.require_program()

import reference  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

RUN = [sys.executable, str(common.BENCH_DIR / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(*args: str) -> dict:
    p = subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=common.ROOT, timeout=170)
    assert p.returncode == 0, p.stderr
    return _last_json(p.stdout)


def test_benchmark_json_declares_what_the_benchmark_reports():
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--quick")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) and m["value"] > 0


#: Spans each workload's traced run must have recorded at least once.
CALLED = {
    "cli_cold": ("cli.main", "catalog.verify_all", "catalog.list_cases", "bondal.e2_page", "ktheory.twist_chern"),
    "sweep_json": ("catalog.verify_all", "catalog.verify_case", "bondal.reconstruct", "serialize.to_json", "serialize.dumps"),
    "library_mix": (
        "cohomology.cohomology_q2",
        "cohomology.euler_char",
        "ktheory.to_chern",
        "ktheory.from_chern",
        "picard.bidegree_add",
        "quiver.hom_ext_series",
        "bondal.e2_page",
        "catalog.verify_case",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_reports_every_per_layer_metric(workload):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--quick")
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == PER_LAYER
    for span in CALLED[workload]:
        assert metrics[f"{span}_calls"]["value"] > 0, span
    assert metrics["trace.spans"]["value"] > 0
    assert (common.OUT_DIR / f"trace-{workload}-seed7.json.gz").is_file()


def test_seed_changes_the_library_stream_but_not_its_mix():
    import library_mix

    a, _ = library_mix.build_stream(1, 1)
    b, _ = library_mix.build_stream(2, 1)
    again, _ = library_mix.build_stream(1, 1)
    assert [op.args for op in a] == [op.args for op in again]
    assert [op.args for op in a] != [op.args for op in b]
    assert sorted(op.fn.__name__ for op in a) == sorted(op.fn.__name__ for op in b)


def test_references_reproduce_the_documented_values():
    assert reference.kunneth(-3, 0) == (0, 2, 0)
    assert reference.kunneth(1, 1) == (4, 0, 0)
    assert reference.rr_chi(2, (2, 2), 5, 0, 0) == 5
    assert reference.rr_chi(3, (2, 2), 6, -1, -1) == -2
    assert reference.twist_numerics(2, (1, 1), 1, (1, 0)) == (2, 3, 1, 2)
    assert reference.oracle_numerics([((-1, -2), 1)], [((1, 0), 1), ((0, 0), 3)]) == (3, (2, 2), 6)
    assert reference.sweep_total(reference.MAIN22, 1000) == 22983
    assert reference.sweep_total(reference.MAIN22, 10) == 213
    assert reference.sweep_total(reference.MAIN22, 10) + reference.sweep_total(reference.QUADRIC21, 10) == 261


def test_checks_reject_wrong_answers():
    index = next(i for i, (argv, _, _) in enumerate(reference.CLI_MIX) if argv[0] == "cohomology")
    assert reference.check_invocation(index, 0, "h0=0 h1=2 h2=0 chi=-2\n", "") is None
    assert reference.check_invocation(index, 0, "h0=0 h1=3 h2=0 chi=-3\n", "") is not None
    assert reference.check_invocation(index, 1, "h0=0 h1=2 h2=0 chi=-2\n", "") is not None
    document = {"summary": {"total": 1, "passed": 1, "failed": 0}, "invocation": "x", "results": []}
    assert reference.check_sweep_document(document, (("main22", reference.MAIN22),), 1, "x") is not None


def test_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       356 |        356 |     nefq2.errors\n"
        "import time:       609 |      28717 |   nefq2\n"
        "import time:      2733 |      34986 | nefq2.cli\n"
    )
    table = common.parse_importtime(text)
    assert table == {"nefq2.errors": (356, 356, 2), "nefq2": (609, 28717, 1), "nefq2.cli": (2733, 34986, 0)}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
