"""Golden output of ``nefq2 verify`` on broken tables.

The shipped tables all pass, so the failure output (a FAIL line, one line
per failing check and rank, exit 1) and the errors raised partway through
a sweep are pinned here on hand-built cases: ``list_cases`` is replaced by
a table holding one passing case and one broken case.  The snapshots in
``tests/golden/failing_<name>.txt`` use the rendering of test_golden.py.
One run is repeated in a cold child, through ``cli.entry`` and interpreter
exit.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from test_catalog import _row_with_its_verdict, _verdict_ranks
from test_cli import _child_env
from test_golden import _render

from nefq2 import NefQ2Error, catalog, cli
from nefq2._value import replace
from nefq2.catalog import CaseSpec, RankExpr
from nefq2.picard import ZERO, BiDegree

GOLDEN = Path(__file__).parent / "golden"

_MAIN22 = {c.id: c for c in catalog.list_cases("main22")}
_QUADRIC21 = {c.id: c for c in catalog.list_cases("quadric21")}

#: A broken case for each way a table row can fail.
BROKEN = {
    # c2 is right at no rank: the c2 check fails everywhere
    "wrong_c2": replace(_MAIN22["main22-3"], expected_c2=3),
    # an extra O(1,0)^r in the middle: rank 2r and c1 (2+r, 2) move with r
    "c1_slope": replace(
        _MAIN22["main22-1"],
        id="main22-1-slope",
        mid_terms=_MAIN22["main22-1"].mid_terms + ((BiDegree(1, 0), RankExpr(0, 1)),),
    ),
    # 0 -> O(-3,-3) -> O^(r+1) -> E -> 0: c2 = 18 and chi = r - 3, negative at r = 1, 2
    "chi_negative": CaseSpec(
        id="main22-chi",
        theorem="main22",
        c1=BiDegree(3, 3),
        sub_terms=((BiDegree(-3, -3), RankExpr(1)),),
        mid_terms=((ZERO, RankExpr(1, 1)),),
        coker=None,
        expected_c2=18,
        globally_generated=True,
        bondal_reconstructible=False,
    ),
    # 0 -> O^r -> O^2 -> E -> 0 has rank 2 - r: a virtual class from r = 2 on
    "virtual": CaseSpec(
        id="main22-virtual",
        theorem="main22",
        c1=ZERO,
        sub_terms=((ZERO, RankExpr(0, 1)),),
        mid_terms=((ZERO, RankExpr(2)),),
        coker=None,
        expected_c2=0,
        globally_generated=None,
        bondal_reconstructible=False,
    ),
    # mid O(3,-1) + O(-1,3) + O^(r-1) over O: c1 (2,2) and c2 = 10 above the nef
    # bound; marked reconstructible, though the module profile stops at c2 = 8
    "c2_above_8": CaseSpec(
        id="main22-c2-10",
        theorem="main22",
        c1=BiDegree(2, 2),
        sub_terms=((ZERO, RankExpr(1)),),
        mid_terms=((BiDegree(3, -1), RankExpr(1)), (BiDegree(-1, 3), RankExpr(1)), (ZERO, RankExpr(-1, 1))),
        coker=None,
        expected_c2=10,
        globally_generated=False,
        bondal_reconstructible=True,
    ),
    # 0 -> O^(2-r) -> O(2,2) + O -> E -> 0: slope [O], but O^(2-r) falls with r,
    # so the sweep passes to r = 2 and the multiplicities check fails from r = 3
    "falling": CaseSpec(
        id="main22-falling",
        theorem="main22",
        c1=BiDegree(2, 2),
        sub_terms=((ZERO, RankExpr(2, -1)),),
        mid_terms=((BiDegree(2, 2), RankExpr(1)), (ZERO, RankExpr(1))),
        coker=None,
        expected_c2=0,
        globally_generated=True,
        bondal_reconstructible=False,
    ),
    # marked reconstructible below the window: c2 = 2 has no module profile
    "flag_below_6": replace(_MAIN22["main22-3"], bondal_reconstructible=True),
    # marked reconstructible off determinant (2,2): quadric21-5 has c1 (2,1)
    "flag_off_22": replace(_QUADRIC21["quadric21-5"], bondal_reconstructible=True),
}


def test_a_broken_row_passes_exactly_when_every_check_passes():
    # every broken table: main22-1 and the broken case, at the first ranks and
    # random ones; a rank whose class has no Chern data raises instead
    rng = random.Random(23)
    failing = set()
    for name, broken in BROKEN.items():
        for case in (_MAIN22["main22-1"], broken):
            for r in (*range(case.min_rank, case.min_rank + 4), *_verdict_ranks(case, rng)):
                try:
                    row = _row_with_its_verdict(case, r)
                except NefQ2Error:
                    continue
                if not row.passed:
                    failing.add(name)
    # the virtual case passes at r = 1 and has no Chern data from r = 2 on
    assert failing == set(BROKEN) - {"virtual"}
    # one more O in the middle of main22-1 fails the rank check alone
    extra = replace(_MAIN22["main22-1"], mid_terms=_MAIN22["main22-1"].mid_terms + ((ZERO, RankExpr(1)),))
    for r in _verdict_ranks(extra, rng):
        row = _row_with_its_verdict(extra, r)
        assert [check.name for check in row.checks if not check.passed] == ["rank"], r


#: (snapshot name, broken case, argv after "verify main22")
RUNS = tuple(
    (f"failing_{name}_{fmt}", name, ("--rank-max", "4") + (("--format", "json") if fmt == "json" else ()))
    for name in BROKEN
    for fmt in ("text", "json")
) + (
    # from r = 3 on chi = r - 3 is never negative: the same case passes
    ("failing_chi_negative_from_3", "chi_negative", ("--rank-min", "3", "--rank-max", "6")),
    # the reconstruction verdict is one for every rank: from r = 2 on it fails as at r = 1
    ("failing_c2_above_8_from_2", "c2_above_8", ("--rank-min", "2", "--rank-max", "4")),
    # not proved, since a multiplicity falls, yet every rank to 2 passes
    ("failing_falling_to_2", "falling", ("--rank-max", "2")),
)


def break_table(name: str, setattr=setattr) -> None:
    """Make ``list_cases("main22")`` return main22-1 and the broken case."""
    table = (_MAIN22["main22-1"], BROKEN[name])

    def broken_list_cases(theorem, *, c1=None, b=None):
        assert theorem == "main22" and c1 is None and b is None
        return table

    for module in (catalog, cli):
        setattr(module, "list_cases", broken_list_cases)


@pytest.mark.parametrize("snapshot,name,argv", RUNS, ids=[snapshot for snapshot, _, _ in RUNS])
def test_broken_table_matches_golden(monkeypatch, capsys, snapshot, name, argv):
    break_table(name, monkeypatch.setattr)
    code = cli.main(["verify", "main22", *argv])
    captured = capsys.readouterr()
    assert _render(code, captured.out, captured.err, True) == (GOLDEN / f"{snapshot}.txt").read_bytes().decode("utf-8")


#: Breaks the table, then runs ``nefq2 verify main22 <argv>`` through the
#: process entry point.
_COLD_PROBE = """
import sys
from test_verify_failures import break_table
from nefq2 import cli
break_table(sys.argv[1])
sys.argv[1:2] = ["verify", "main22"]
cli.entry()
"""


def test_cold_process_matches_golden():
    snapshot, name, argv = next(run for run in RUNS if run[0] == "failing_wrong_c2_json")
    env = _child_env()
    env["PYTHONPATH"] += f"{os.pathsep}{Path(__file__).parent}"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE, name, *argv], env=env, capture_output=True, timeout=60
    )
    got = _render(proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"), True)
    assert got == (GOLDEN / f"{snapshot}.txt").read_bytes().decode("utf-8")


def test_every_failing_snapshot_has_a_run():
    assert {p.stem for p in GOLDEN.glob("failing_*.txt")} == {snapshot for snapshot, _, _ in RUNS}
