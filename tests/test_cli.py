"""Command-line interface: output formats, exit codes, JSON documents."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nefq2
from nefq2 import list_cases
from nefq2.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_output(capsys):
    code, out, err = run(capsys, "cohomology", "1", "1")
    assert code == 0
    assert out == "h0=4 h1=0 h2=0 chi=4\n"
    # negative degrees parse as positionals, not as options
    code, out, err = run(capsys, "cohomology", "-3", "0")
    assert code == 0
    assert out == "h0=0 h1=2 h2=0 chi=-2\n"


def test_chi_output(capsys):
    code, out, _ = run(capsys, "chi", "2", "2", "2", "5", "0", "0")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, "chi", "2", "2", "2", "5", "-1", "-1")
    assert (code, out) == (0, "-1\n")


def test_twist_output(capsys):
    code, out, _ = run(capsys, "twist", "2", "1", "1", "1", "1", "0")
    assert (code, out) == (0, "rank=2 c1=(3,1) c2=2\n")


def test_ses_output(capsys):
    code, out, _ = run(
        capsys, "ses", "--sub=-1,-2", "--mid", "1,0", "--mid", "0,0:3"
    )
    assert (code, out) == (0, "rank=3 c1=(2,2) c2=6\n")


def test_ses_requires_both_sides(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ses", "--mid", "1,0"])
    assert exc.value.code == 2


def test_ses_malformed_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ses", "--sub", "1;2", "--mid", "1,0"])
    assert exc.value.code == 2


def test_ses_empty_multiplicity(capsys):
    # 'a,b:' is an error, not multiplicity 1; only a term with no colon means 1
    with pytest.raises(SystemExit) as exc:
        main(["ses", "--sub", "0,0:", "--mid", "1,1:3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --sub: bad multiplicity in '0,0:'\n")
    assert run(capsys, "ses", "--sub", "0,0", "--mid", "1,1:3") == (0, "rank=2 c1=(3,3) c2=6\n", "")


def test_space_separated_negative_bidegrees(capsys):
    # '--c1 -1,-1' is a value, as '--c1=-1,-1' is, not an unknown option
    code, out, err = run(capsys, "catalog", "list", "--theorem", "halfmax", "--c1", "-1,-1", "--b-param", "0")
    assert (code, out) == (2, "")
    assert err == "error: determinant (-1,-1) of a nef bundle must be effective\n"
    spaced = run(capsys, "ses", "--sub", "-1,-2", "--mid", "1,0:4")
    assert spaced == run(capsys, "ses", "--sub=-1,-2", "--mid", "1,0:4") == (0, "rank=3 c1=(5,2) c2=12\n", "")
    code, out, _ = run(capsys, "verify", "main22", "--rank-min", "-1", "--rank-max", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["invocation"] == "nefq2 verify main22 --rank-min -1 --rank-max 1 --format json"
    # a malformed negative token reaches the bidegree parser and its message
    with pytest.raises(SystemExit) as exc:
        main(["verify", "halfmax", "--c1", "-1x", "--b-param", "0"])
    assert exc.value.code == 2
    assert "expected 'a,b' integers, got '-1x'" in capsys.readouterr().err


def test_bondal_output(capsys):
    code, out, _ = run(capsys, "bondal", "6", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "second page for c2=6, rank r=4"
    assert "  (p,q)=(0,0): O^6" in lines
    assert "  (p,q)=(-2,1): O(-1,-1)^2" in lines
    assert "  (p,q)=(-1,1): 0" in lines
    assert "  four-term identity: PASS" in lines
    assert "  converges to rank=4 c1=(2,2) c2=6: PASS" in lines
    assert lines[-1] == "module-profile reconstruction: (rank 4, c1 (2,2), 2ch2 -4): PASS"


def test_bondal_prints_both_variants_when_ambiguous(capsys):
    code, out, _ = run(capsys, "bondal", "8", "3")
    assert code == 0
    assert "variant curve_torsion" in out
    assert "variant structure_sheaf" in out
    assert "O_C(0) on a (2,2) curve" in out
    code, out, _ = run(capsys, "bondal", "8", "3", "--variant", "structure_sheaf")
    assert code == 0
    assert "curve_torsion" not in out


def test_bondal_rejects_out_of_range_c2(capsys):
    code, out, err = run(capsys, "bondal", "5", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "c2" in err


def test_catalog_list_text(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--theorem", "main22")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 23
    assert lines[0] == "main22-1: 0 -> 0 -> O(2,2)+O^(r-1) -> E -> 0 -> 0  [min_rank 1, c2 0]"
    assert (
        lines[2]
        == "main22-2-swap: 0 -> 0 -> O(1,2)+O(1,0)+O^(r-2) -> E -> 0 -> 0  [min_rank 2, c2 2] twin_of=main22-2"
    )
    # default listing covers both parameter-free theorems
    code, out, _ = run(capsys, "catalog", "list")
    assert len(out.splitlines()) == 28


def test_catalog_list_json(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["cases"]
    assert len(doc["cases"]) == 28
    assert doc["cases"][0]["id"] == "main22-1"
    # byte-identical round trip under the documented dump settings
    assert out.strip() == json.dumps(doc, sort_keys=True, indent=2)


def test_catalog_list_parametric(capsys):
    code, out, _ = run(
        capsys, "catalog", "list", "--theorem", "halfmax", "--c1", "3,2", "--b-param", "1"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("halfmax-general:")
    code, out, err = run(capsys, "catalog", "list", "--theorem", "halfmax", "--c1", "3,2")
    assert code == 2
    assert "b-param" in err


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "main22", "--rank-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "main22-1  c2=0  r=1..3  weak_fano=yes  PASS"
    assert lines[-1] == "summary: 52/52 checks passed, 0 failed"


def test_verify_all_theorems(capsys):
    code, out, _ = run(capsys, "verify", "all", "--rank-max", "2")
    assert code == 0
    assert "quadric21-5  c2=4  r=1..2  weak_fano=no  PASS" in out.splitlines()


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "main22", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["invocation", "results", "summary", "tool_version"]
    assert doc["tool_version"] == nefq2.__version__
    assert doc["invocation"] == "nefq2 verify main22 --format json"
    assert doc["summary"] == {"failed": 0, "passed": 213, "total": 213}
    assert len(doc["results"]) == 213
    first = doc["results"][0]
    assert first["case_id"] == "main22-1"
    assert {c["name"] for c in first["checks"]} >= {"rank", "c1", "c2", "c2_bound"}
    assert out.strip() == json.dumps(doc, sort_keys=True, indent=2)


def test_verify_parametric(capsys):
    code, out, _ = run(
        capsys, "verify", "nearmax", "--c1", "3,2", "--rank-max", "4"
    )
    assert code == 0
    assert "nearmax-1" in out
    code, _, err = run(capsys, "verify", "halfmax")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_theorem_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"nefq2 {nefq2.__version__}"


def test_empty_sweep_is_a_usage_error(capsys):
    for extra in ((), ("--format", "json")):
        code, out, err = run(capsys, "verify", "main22", "--rank-min", "20", "--rank-max", "3", *extra)
        assert (code, out) == (2, "")
        assert err == "error: empty sweep: no case has a rank in 20..3\n"


def _child_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


def test_closed_pipe_exits_1_without_traceback():
    # like `nefq2 verify main22 --format json | head -1` on ~2.8 MB of output
    env = _child_env()
    argv = ["verify", "main22", "--rank-max", "100", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "nefq2.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_reader_gone_in_a_block_write_exits_1_quietly():
    # the 28 MB rank-1000 document is written in blocks of rows: the reader
    # leaves during the first one
    argv = ["verify", "main22", "--rank-max", "1000", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "nefq2.cli", *argv], env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def _limit_address_space() -> None:
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_rank_max_prints_one_line_per_case():
    # every main22 case is proved for all ranks, so a text sweep up to 10**12
    # costs one line per case; a per-rank sweep would run out of time or of
    # the child's 1 GiB of address space
    rank_max = 10**12
    proc = subprocess.run(
        [sys.executable, "-m", "nefq2.cli", "verify", "main22", "--rank-max", str(rank_max)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    cases = list_cases("main22")
    total = sum(rank_max - case.min_rank + 1 for case in cases)
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"summary: {total}/{total} checks passed, 0 failed"
    assert len(lines) == len(cases) + 1
    for case, line in zip(cases, lines):
        assert line.startswith(f"{case.id}  c2={case.expected_c2}  r={case.min_rank}..{rank_max}  ")
        assert line.endswith("  PASS")


#: Runs main(argv) in a fresh interpreter, then prints which of the JSON
#: modules it loaded.
_LOADED_PROBE = """
import io, sys
from nefq2.cli import main
sys.stdout = io.StringIO()
main(sys.argv[1:])
print(sorted({"json", "nefq2.report_json"} & set(sys.modules)), file=sys.__stdout__)
"""


_LOADED = (
    (["cohomology", "1", "1"], "[]"),
    (["verify", "main22"], "[]"),
    (["catalog", "list"], "[]"),
    (["verify", "main22", "--format", "json"], "['nefq2.report_json']"),
    (["catalog", "list", "--format", "json"], "['json', 'nefq2.report_json']"),
)


@pytest.mark.parametrize("argv,loaded", _LOADED, ids=[" ".join(argv) for argv, _ in _LOADED])
def test_json_modules_load_only_for_json_output(argv, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", loaded + "\n")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = 'import sys, nefq2.cli; print(sorted({"dataclasses", "inspect"} & set(sys.modules)))'
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


class _ByteCount:
    """A stdout that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _json_sweep_peak(rank_max: int) -> tuple[int, int]:
    """Peak traced bytes and characters written by verify main22 --format json."""
    sink = _ByteCount()
    gc.collect()  # the last run's parser is cyclic garbage; do not count it
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["verify", "main22", "--rank-max", str(rank_max), "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.count


def test_json_sweep_memory_is_flat_in_rank_max():
    _json_sweep_peak(2)  # certify the cases and load the JSON encoder first
    peak_300, written_300 = _json_sweep_peak(300)
    peak_3000, written_3000 = _json_sweep_peak(3000)
    assert written_3000 > 10 * written_300
    # the reports are written as they are made, so 10x the output adds no memory
    assert peak_3000 - peak_300 < 16 * 1024, (peak_300, peak_3000)
