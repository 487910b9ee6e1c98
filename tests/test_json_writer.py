"""The verify document is written report by report from one template; it
must be exactly what json.dumps(..., sort_keys=True, indent=2) prints for
the document of the reports' to_json() dicts."""

from __future__ import annotations

import json

import pytest

from nefq2 import BiDegree, __version__, list_cases, verify_all
from nefq2._value import replace
from nefq2.catalog import certify, verify_case
from nefq2.cli import main
from nefq2.report_json import write_verify_json

#: (argv, tables, verify_all keyword arguments)
RUNS = (
    (("verify", "all", "--format", "json"), ("main22", "quadric21"), {}),
    (("verify", "quadric21", "--format", "json"), ("quadric21",), {}),
    (
        ("verify", "halfmax", "--c1", "3,3", "--b-param", "3", "--format", "json"),
        ("halfmax",),
        dict(c1=BiDegree(3, 3), b=3),
    ),
    (
        ("verify", "halfmax", "--c1", "3,3", "--b-param", "1", "--format", "json"),
        ("halfmax",),
        dict(c1=BiDegree(3, 3), b=1),
    ),
    (("verify", "nearmax", "--c1", "3,2", "--format", "json"), ("nearmax",), dict(c1=BiDegree(3, 2))),
    # a fullwidth digit: argparse's int reads it as 3, the invocation keeps it
    (("verify", "main22", "--rank-max", "３", "--format", "json"), ("main22",), dict(rank_max=3)),
)


def _dumps(argv, reports) -> str:
    passed = sum(r.passed for r in reports)
    document = {
        "tool_version": __version__,
        "invocation": "nefq2 " + " ".join(argv),
        "results": [r.to_json() for r in reports],
        "summary": {"total": len(reports), "passed": passed, "failed": len(reports) - passed},
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv,tables,kwargs", RUNS, ids=[" ".join(argv) for argv, _, _ in RUNS])
def test_verify_document_equals_json_dumps(capsys, argv, tables, kwargs):
    assert main(list(argv)) == 0
    reports = [report for t in tables for report in verify_all(t, **kwargs)]
    assert capsys.readouterr().out == _dumps(argv, reports)


def test_non_ascii_invocation_is_escaped(capsys):
    assert main(["verify", "main22", "--rank-max", "３", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.isascii()
    assert '"invocation": "nefq2 verify main22 --rank-max \\uff13 --format json",' in out


def _written(argv, cases, hi) -> str:
    chunks: list[str] = []
    swept = [(case, case.min_rank, *certify(case).rows(case.min_rank, hi)) for case in cases]
    passed = sum(count for _, _, count, _ in swept)
    total = sum(hi + 1 - case.min_rank for case in cases)
    write_verify_json("nefq2 " + " ".join(argv), swept, passed, total, chunks.append)
    return "".join(chunks)


def test_failing_reports_equal_json_dumps():
    by_id = {c.id: c for c in list_cases("main22")}
    cases = [
        # a wrong c2 and an unknown global generation: failing checks, null flag
        replace(by_id["main22-3"], expected_c2=3, globally_generated=None),
        replace(by_id["main22-12"], id='main22-12 "∞"', expected_c2=6),
        by_id["main22-9"],
    ]
    reports = [verify_case(case, r) for case in cases for r in range(case.min_rank, 6)]
    assert [r.passed for r in reports].count(True) == 5  # main22-9 at ranks 1..5
    assert {r.flags["globally_generated"] for r in reports} == {None, False, True}
    argv = ("verify", "main22", "--rank-max", "5", "--format", "json")
    assert _written(argv, cases, 5) == _dumps(argv, reports)
    assert _written(argv, [], 5) == _dumps(argv, [])
