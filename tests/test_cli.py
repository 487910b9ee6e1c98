"""Command-line interface: output formats, exit codes, JSON documents."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nefq2
from nefq2 import catalog, cli, list_cases, verify
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
    # reported by the ses subparser, as its other usage errors are
    err = capsys.readouterr().err
    assert err.startswith("usage: nefq2 ses [-h] [--sub A,B[:MULT]] [--mid A,B[:MULT]]\n")
    assert err.endswith("\nnefq2 ses: error: ses needs at least one --sub and one --mid term\n")


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


#: argv whose parse shows argparse's own output: every help, the version,
#: usage errors of the top-level parser and of a subparser, an ambiguous and
#: an abbreviated flag, and one plain run
_PARSER_ARGV = (
    *([name, "-h"] for name in ("cohomology", "chi", "twist", "ses", "bondal", "catalog", "verify")),
    ["catalog", "list", "-h"],
    ["-h"],
    ["--version"],
    ["--"],
    ["--", "cohomology", "1", "1"],
    ["bogus"],
    [],
    ["cohomology", "1"],
    ["cohomology", "1", "1", "2"],
    ["catalog"],
    ["verify", "main22", "--rank-max"],
    ["verify", "main22", "--rank-m", "3"],
    ["verify", "main22", "--rank-ma", "3"],
    ["bondal", "8", "3", "--variant", "bogus"],
    ["ses", "--mid", "1,0"],
    ["cohomology", "1", "1"],
)

#: The README's command lines, without "nefq2" and comments.
_README_ARGV = [
    line.split("#")[0].split()[1:]
    for line in (Path(__file__).resolve().parent.parent / "README.md")
    .read_text(encoding="utf-8")
    .split("## Command line", 1)[1]
    .split("```sh\n", 1)[1]
    .split("```", 1)[0]
    .splitlines()
]

#: Lines that parse and then exit 2, in the library.
_LIBRARY_ERROR_ARGV = [["catalog", "list", "--theorem", "nearmax"], ["bondal", "5", "3"]]

#: The lines a cold command is benchmarked on.
_BENCHED_ARGV = [*_README_ARGV, ["verify", "all", "--format", "json"], *_LIBRARY_ERROR_ARGV]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_read(argv):
    """cli._read gives the namespace the parser of every command gives, or
    None: always None where that parser prints help or version, or exits."""
    read = cli._read(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._build_parser().parse_args(list(argv)))
        except SystemExit:
            parsed = None
    assert read is None or vars(read) == parsed, (read, parsed)
    return read


@pytest.mark.parametrize("argv", _BENCHED_ARGV, ids=" ".join)
def test_a_documented_line_is_read_without_argparse(argv):
    assert len(_README_ARGV) == 10
    assert _check_read(argv) is not None


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=[" ".join(argv) or "(none)" for argv in _PARSER_ARGV])
def test_a_command_parses_as_under_the_every_command_parser(capsys, monkeypatch, argv):
    # _read leaves every line but the two plain ones to the parser of every
    # command, and each prints the same exit code, stdout and stderr when
    # that parser reads it
    assert (_check_read(argv) is None) == (argv not in (["cohomology", "1", "1"], ["ses", "--mid", "1,0"]))
    read = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert read == _outcome(capsys, argv)


#: Tokens for the lines drawn below: the grammar's own and other flags, and
#: values that argparse's int, bidegree and choice readers take or refuse.
_FLAGS = sorted({arg for *_, arguments in cli._COMMANDS for arg, _ in arguments if arg.startswith("-")})
_ODD_FLAGS = ["-h", "--help", "--version", "--", "--bogus"]
_VALUES = ["-3", "+5", " 5", "1_0", "\u0663", "-.5", "-x", "-", "", "0", "1", "8", "3,2", "-1,-1", "1,0:3", "0,0:", "1;2"]
_TOKENS = st.one_of(
    st.sampled_from(_FLAGS + _ODD_FLAGS + _VALUES + ["main22", "all", "json", "curve_torsion", "bogus", "list"]),
    st.builds("{}={}".format, st.sampled_from(_FLAGS + _ODD_FLAGS), st.sampled_from(_VALUES + ["json", "main22"])),
)


@st.composite
def _lines(draw):
    """A command's words, a value for each positional and some options,
    spelled out or abbreviated, in either form and any order; then up to two
    tokens inserted anywhere."""
    name, _, _, arguments = draw(st.sampled_from(cli._COMMANDS))
    units = []
    for arg, kwargs in arguments:
        value = draw(st.sampled_from(list(kwargs.get("choices", _VALUES))))
        if not arg.startswith("-"):
            units.append([value])
        elif draw(st.booleans()):
            flag = draw(st.sampled_from([arg, arg[:-1], arg[:-2]]))  # '--rank-m' is ambiguous
            units.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    argv = name.split() + [token for unit in draw(st.permutations(units)) for token in unit]
    for at, token in draw(st.lists(st.tuples(st.integers(0, len(argv)), _TOKENS), max_size=2)):
        argv.insert(at, token)
    return argv


@settings(max_examples=500, deadline=None, database=None)
@given(argv=_lines())
def test_read_gives_argparse_namespace_or_leaves_the_line(argv):
    _check_read(argv)


def test_usage_errors_name_the_command_argument(capsys):
    # no metavar renames it when argv[0] names no command
    assert "error: argument command: invalid choice: 'bogus'" in _outcome(capsys, ["bogus"])[2]
    assert _outcome(capsys, [])[2].endswith("error: the following arguments are required: command\n")


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


#: Runs nefq2.cli as __main__, as `python -m nefq2.cli` does, with an atexit
#: hook registered before entry() that reports the collector's state at exit.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))
runpy.run_module("nefq2.cli", run_name="__main__", alter_sys=True)
"""


def test_a_cold_process_freezes_its_import_time_heap():
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, "chi", "2", "2", "2", "5", "0", "0"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    # frozen, and the collector still runs for what the command creates
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5\n", "True True\n")


#: Imports nefq2.cli and calls main() in a fresh interpreter, then prints the
#: collector's state before the import, after it and after main().
_COLLECTOR_PROBE = """
import gc, io, sys
states = [(gc.get_freeze_count(), gc.isenabled())]
import nefq2.cli
states.append((gc.get_freeze_count(), gc.isenabled()))
sys.stdout = io.StringIO()
nefq2.cli.main(sys.argv[1:])
states.append((gc.get_freeze_count(), gc.isenabled()))
print(states, file=sys.__stdout__)
"""


def test_import_and_main_leave_the_collector_alone(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", _COLLECTOR_PROBE, "chi", "2", "2", "2", "5", "0", "0"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[(0, True), (0, True), (0, True)]\n")
    state = (gc.get_freeze_count(), gc.isenabled())
    assert run(capsys, "verify", "all")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state


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
    total = sum(rank_max - case.display.min_rank + 1 for case in cases)
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"summary: {total}/{total} checks passed, 0 failed"
    assert len(lines) == len(cases) + 1
    for case, line in zip(cases, lines):
        assert line.startswith(f"{case.id}  c2={case.expected_c2}  r={case.display.min_rank}..{rank_max}  ")
        assert line.endswith("  PASS")


#: Runs main(argv) in a fresh interpreter, then prints which of the JSON
#: modules and the certificate engine it loaded.
_LOADED_PROBE = """
import io, sys
from nefq2.cli import main
sys.stdout = io.StringIO()
main(sys.argv[1:])
print(sorted({"json", "nefq2.report_json", "nefq2.verify"} & set(sys.modules)), file=sys.__stdout__)
"""


_LOADED = (
    (["cohomology", "1", "1"], "[]"),
    (["verify", "main22"], "['nefq2.verify']"),
    (["catalog", "list"], "[]"),
    (["verify", "main22", "--format", "json"], "['nefq2.report_json', 'nefq2.verify']"),
    (["catalog", "list", "--format", "json"], "['json', 'nefq2.report_json']"),
    (["bondal", "6", "4"], "[]"),
)


@pytest.mark.parametrize("argv,loaded", _LOADED, ids=[" ".join(argv) for argv, _ in _LOADED])
def test_json_modules_load_only_for_json_output(argv, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", loaded + "\n")


#: Runs main(argv) in a fresh interpreter (with no argv, only imports nefq2.cli),
#: then prints how many parameter-free tables and page tables it built, and
#: which value types of the loaded modules hold a compiled __init__ or __eq__.
_BUILT_PROBE = """
import io, sys
from nefq2 import _value, bondal, catalog
from nefq2.cli import main
sys.stdout = io.StringIO()
if sys.argv[1:]:
    main(sys.argv[1:])
compiled = sorted(
    f"{cls.__name__}.{name}"
    for module in [m for n, m in sys.modules.items() if n.startswith("nefq2.")]
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__ and vars(cls).get("__repr__") is _value._repr
    for name in ("__init__", "__eq__")
    if vars(cls)[name].__qualname__ == f"{cls.__name__}.{name}"
)
tables = catalog._fixed_table.cache_info().currsize, bondal._pages.cache_info().currsize
print(*tables, compiled, file=sys.__stdout__)
"""


_BUILT = (
    ([], "0 0 ['BiDegree.__init__', 'KClass.__init__']"),
    (["cohomology", "-3", "0"], "0 0 ['BiDegree.__init__', 'CohomologyVector.__init__', 'KClass.__init__']"),
    (
        ["catalog", "list", "--theorem", "main22"],
        "1 0 ['BiDegree.__eq__', 'BiDegree.__init__', 'CaseSpec.__init__', 'Display.__init__', 'KClass.__init__', "
        "'RankExpr.__init__', 'TorsionDescriptor.__init__']",
    ),
    (
        ["catalog", "list"],
        "2 0 ['BiDegree.__eq__', 'BiDegree.__init__', 'CaseSpec.__init__', 'Display.__init__', 'KClass.__init__', "
        "'RankExpr.__init__', 'TorsionDescriptor.__init__']",
    ),
    (
        ["verify", "main22"],
        "1 0 ['BiDegree.__init__', 'BundleNumerics.__init__', 'CaseSpec.__init__', 'Certificate.__init__', "
        "'Display.__init__', 'KClass.__init__', 'RankExpr.__init__', 'TorsionDescriptor.__init__']",
    ),
    (
        ["bondal", "7", "3"],
        "0 1 ['BiDegree.__eq__', 'BiDegree.__init__', 'BundleNumerics.__init__', 'E2Entry.__init__', "
        "'E2Page.__init__', 'KClass.__init__', 'TorsionDescriptor.__init__']",
    ),
)


@pytest.mark.parametrize("argv,built", _BUILT, ids=[" ".join(argv) or "import" for argv, _ in _BUILT])
def test_a_cold_command_builds_only_the_tables_and_methods_it_uses(argv, built):
    proc = subprocess.run(
        [sys.executable, "-c", _BUILT_PROBE, *argv], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", built + "\n")


#: Modules that importing argparse and its gettext lookups load.
_ARGPARSE_MODULES = {"argparse", "gettext", "locale", "shutil"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor argparse: the interpreter's own start-up may load shutil, so the
    # probe counts what the import adds
    probed = {"dataclasses", "inspect", *_ARGPARSE_MODULES}
    probe = f"import sys; was = set(sys.modules); import nefq2.cli; print(sorted({probed!r} & set(sys.modules) - was))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


#: Runs main(argv) in a fresh interpreter, its output discarded, then prints
#: which of argparse's modules the import and main loaded.
_ARGPARSE_PROBE = f"""
import io, sys
before = set(sys.modules)
from nefq2.cli import main
sys.stdout = sys.stderr = io.StringIO()
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(sorted({_ARGPARSE_MODULES!r} & set(sys.modules) - before), file=sys.__stdout__)
"""


_ARGPARSE_ARGV = [["-h"], ["--version"], ["cohomology", "1"]]


@pytest.mark.parametrize("argv", [*_README_ARGV, *_LIBRARY_ERROR_ARGV, *_ARGPARSE_ARGV], ids=" ".join)
def test_only_help_version_and_usage_errors_load_argparse(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _ARGPARSE_PROBE, *argv], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = ast.literal_eval(proc.stdout)
    assert "argparse" in loaded if argv in _ARGPARSE_ARGV else loaded == []


#: The modules whose import times the benchmark reads from ``import nefq2.cli``.
_CLI_IMPORTS = ("picard", "cohomology", "ktheory", "quiver", "bondal", "catalog", "errors", "cli")


def test_cli_import_and_the_forwarded_engine_names():
    """``import nefq2.cli`` loads the eight modules whose ``-X importtime``
    rows the benchmark's import layer indexes, and not the certificate
    engine.  ``catalog`` forwards to ``nefq2.verify`` only the four engine
    names the benchmark reads, and no other; the package forwards
    ``verify_all``, and a star import still binds ``__all__``."""
    probed = [f"nefq2.{m}" for m in (*_CLI_IMPORTS, "verify")]
    probe = f"import sys, nefq2.cli; print(sorted(set({probed!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{sorted(f'nefq2.{m}' for m in _CLI_IMPORTS)}\n")

    forwarded = ("VerificationReport", "case_kclass", "verify_case", "verify_all")
    assert all(getattr(catalog, n) is getattr(verify, n) for n in forwarded) and nefq2.verify_all is verify.verify_all
    for name in ("certify", "Certificate", "CheckResult"):
        with pytest.raises(AttributeError):
            getattr(catalog, name)
    namespace: dict[str, object] = {}
    exec("from nefq2 import *", namespace)
    assert {n: namespace[n] for n in nefq2.__all__} == {n: getattr(nefq2, n) for n in nefq2.__all__}


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
