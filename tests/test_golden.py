"""Golden-output gate for the command line.

Each invocation runs ``nefq2.cli.main`` in-process and must reproduce the
snapshot in ``tests/golden/<name>.txt`` byte for byte: the exit code,
stdout and stderr, rendered as

    exit <code>
    --- stdout
    <stdout>
    --- stderr
    <stderr>

Usage errors reported by argparse keep only the exit code and stdout,
because the usage text on stderr changes between Python versions.

A subset of the same table also runs as cold ``python -m nefq2.cli``
children, through the process entry point and interpreter exit.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _child_env

from nefq2.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: (snapshot name, argv, whether stderr is our own and compared)
INVOCATIONS: tuple[tuple[str, tuple[str, ...], bool], ...] = (
    # the README commands
    ("readme_cohomology", ("cohomology", "-3", "0"), True),
    ("readme_chi", ("chi", "2", "2", "2", "5", "0", "0"), True),
    ("readme_twist", ("twist", "2", "1", "1", "1", "1", "0"), True),
    ("readme_ses", ("ses", "--sub=-1,-2", "--mid", "1,0", "--mid", "0,0:3"), True),
    ("readme_bondal_6_4", ("bondal", "6", "4"), True),
    ("readme_bondal_8_5_structure", ("bondal", "8", "5", "--variant", "structure_sheaf"), True),
    ("readme_catalog_main22", ("catalog", "list", "--theorem", "main22"), True),
    (
        "readme_catalog_halfmax_json",
        ("catalog", "list", "--theorem", "halfmax", "--c1", "3,2", "--b-param", "1", "--format", "json"),
        True,
    ),
    ("readme_verify_all", ("verify", "all"), True),
    ("readme_verify_main22_json", ("verify", "main22", "--rank-max", "10", "--format", "json"), True),
    ("version", ("--version",), True),
    # further successful runs
    ("bondal_8_5_both_variants", ("bondal", "8", "5"), True),
    ("bondal_8_1_both_variants", ("bondal", "8", "1"), True),
    ("bondal_7_3", ("bondal", "7", "3"), True),
    ("verify_all_json", ("verify", "all", "--format", "json"), True),
    ("verify_all_rank_max_300", ("verify", "all", "--rank-max", "300"), True),
    ("verify_quadric21_json", ("verify", "quadric21", "--format", "json"), True),
    ("verify_halfmax", ("verify", "halfmax", "--c1", "3,2", "--b-param", "1"), True),
    ("verify_nearmax_json", ("verify", "nearmax", "--c1", "3,3", "--format", "json"), True),
    ("catalog_all_json", ("catalog", "list", "--format", "json"), True),
    ("ses_negative_sub", ("ses", "--sub", "-1,-2", "--mid", "1,0:4"), True),
    (
        "catalog_nearmax_json",
        ("catalog", "list", "--theorem", "nearmax", "--c1", "3,2", "--format", "json"),
        True,
    ),
    (
        "catalog_halfmax_split_json",
        ("catalog", "list", "--theorem", "halfmax", "--c1", "3,3", "--b-param", "3", "--format", "json"),
        True,
    ),
    (
        "catalog_halfmax_b0_json",
        ("catalog", "list", "--theorem", "halfmax", "--c1", "2,2", "--b-param", "0", "--format", "json"),
        True,
    ),
    # every "error:" path with exit code 2
    ("error_nearmax_no_c1", ("catalog", "list", "--theorem", "nearmax"), True),
    ("error_halfmax_no_b", ("catalog", "list", "--theorem", "halfmax", "--c1", "3,2"), True),
    ("error_halfmax_b_range", ("catalog", "list", "--theorem", "halfmax", "--c1", "3,2", "--b-param", "5"), True),
    ("error_nearmax_small_c1", ("catalog", "list", "--theorem", "nearmax", "--c1", "0,2"), True),
    ("error_bondal_c2", ("bondal", "5", "3"), True),
    ("error_bondal_variant", ("bondal", "7", "3", "--variant", "curve_torsion"), True),
    ("error_bondal_rank", ("bondal", "6", "0"), True),
    ("error_chi_rank", ("chi", "0", "2", "2", "5", "0", "0"), True),
    ("error_ses_virtual", ("ses", "--sub", "0,0:2", "--mid", "1,0"), True),
    ("error_verify_nearmax_no_c1", ("verify", "nearmax"), True),
    ("verify_empty_sweep", ("verify", "main22", "--rank-min", "20", "--rank-max", "3"), True),
    ("error_catalog_main22_c1", ("catalog", "list", "--theorem", "main22", "--c1", "5,5"), True),
    ("error_verify_nearmax_b", ("verify", "nearmax", "--c1", "3,3", "--b-param", "2"), True),
    ("error_verify_all_c1", ("verify", "all", "--c1", "2,2"), True),
    (
        "error_halfmax_negative_c1",
        ("catalog", "list", "--theorem", "halfmax", "--c1", "-1,-1", "--b-param", "0"),
        True,
    ),
    # usage errors raised by argparse
    ("usage_ses_no_sub", ("ses", "--mid", "1,0"), False),
    ("usage_verify_bogus", ("verify", "bogus"), False),
)


def _render(code: int, out: str, err: str, own_stderr: bool) -> str:
    text = f"exit {code}\n--- stdout\n{out}"
    if own_stderr:
        text += f"--- stderr\n{err}"
    return text


@pytest.mark.parametrize(
    "name,argv,own_stderr", INVOCATIONS, ids=[name for name, _, _ in INVOCATIONS]
)
def test_cli_matches_golden(capsys, name, argv, own_stderr):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    got = _render(code, captured.out, captured.err, own_stderr)
    assert got == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


#: the README commands, one error and one usage error, as cold processes
COLD = tuple(
    inv for inv in INVOCATIONS if inv[0].startswith("readme_") or inv[0] in ("error_bondal_c2", "usage_verify_bogus")
)


@pytest.mark.parametrize("name,argv,own_stderr", COLD, ids=[name for name, _, _ in COLD])
def test_cold_process_matches_golden(name, argv, own_stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "nefq2.cli", *argv], env=_child_env(), capture_output=True, timeout=60
    )
    got = _render(proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"), own_stderr)
    assert got == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


def test_every_snapshot_has_an_invocation():
    names = {name for name, _, _ in INVOCATIONS}
    assert len(names) == len(INVOCATIONS)
    # demo_*.txt are the demo snapshots, owned by test_examples.py, and
    # failing_*.txt the broken-table runs, owned by test_verify_failures.py
    owned = ("demo_", "failing_")
    assert {p.stem for p in GOLDEN.glob("*.txt") if not p.stem.startswith(owned)} == names
