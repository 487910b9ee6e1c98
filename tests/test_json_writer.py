"""The verify document is written in 64 KiB blocks: a proved case's rows
from one template per case, any other case's row by row.  It must be
exactly what json.dumps(..., sort_keys=True, indent=2) prints for the
document of the reports' to_json() dicts, on the command line's runs and
on random displays, and each proved case's template must give the row
text of every rank."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catalog import _grid_cases
from test_certificate_properties import cases as random_cases

from nefq2 import BiDegree, NefQ2Error, __version__, list_cases, verify_all
from nefq2._value import replace
from nefq2.catalog import certify, verify_case
from nefq2.cli import main
from nefq2.report_json import _BLOCK, _blocks, _case_text, _row_text, _template, write_verify_json

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


def test_rank_300_sweep_bytes_are_pinned(capsys):
    assert main(["verify", "main22", "--rank-max", "300", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 8_467_160
    assert hashlib.sha256(out).hexdigest() == "e813117018b808befda56e541da709738be509c169b9bdbdb62f998282ba6346"


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


#: Case ids with quotes, backslashes and non-ASCII characters, and one with
#: the decimal of the template's sentinel rank, which the template refuses.
ids = st.one_of(st.text(max_size=6), st.sampled_from(('main22-12 "∞"', "a\\b\n", f"x{10**30}")))


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(random_cases, ids), max_size=3), st.integers(0, 6), st.integers(0, 8))
def test_random_displays_are_written_as_json_dumps(drawn, rank_min, span):
    # proved and failing cases, swept from rank_min as the CLI sweeps them:
    # a case starts at max(rank_min, min_rank), and one with no rank, or one
    # whose rows raise, is left out
    hi = rank_min + span
    swept, reports = [], []
    for case, case_id in drawn:
        case, lo = replace(case, id=case_id), max(rank_min, case.min_rank)
        if lo > hi:
            continue
        try:
            swept.append((case, lo, *certify(case).rows(lo, hi)))
        except (NefQ2Error, ValueError):
            continue
        reports += [certify(case).row(r) for r in range(lo, hi + 1)]
    passed = sum(count for _, _, count, _ in swept)
    chunks: list[str] = []
    argv = ("verify", "main22", "--rank-min", str(rank_min), "--rank-max", str(hi), "--format", "json")
    write_verify_json("nefq2 " + " ".join(argv), swept, passed, len(reports), chunks.append)
    assert "".join(chunks) == _dumps(argv, reports)


def test_template_gives_the_row_text_of_every_rank():
    shipped = list(list_cases("all"))
    parametric = [case for case in _grid_cases() if case.theorem in ("halfmax", "nearmax")]
    assert len(parametric) > 50
    for case in shipped + parametric:
        text = _case_text(case)
        fill = _template(case, text)
        assert fill is not None and certify(case).proved_from(case.min_rank), case.id
        for r in (case.min_rank, case.min_rank + 1, case.min_rank + 997):
            assert fill(r) == _row_text(text, certify(case).row(r)), (case.id, r)


def test_writes_are_fixed_blocks():
    # a rank-5000 sweep of main22 is about 140 MB of text; every write but
    # the last is one 64 KiB block, whatever the rows' lengths, so the
    # memory does not grow with the range
    sizes: list[int] = []
    swept = [(case, case.min_rank, *certify(case).rows(case.min_rank, 5000)) for case in list_cases("main22")]
    total = sum(count for _, _, count, _ in swept)
    write_verify_json("nefq2 verify main22", swept, total, total, lambda text: sizes.append(len(text)))
    assert sum(sizes) > 100_000_000
    assert max(sizes) < 100_000
    assert set(sizes[:-1]) == {1 << 16} and 0 < sizes[-1] <= 1 << 16


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(0, 3 * _BLOCK), max_size=8))
def test_blocks_cut_the_text_into_whole_blocks(lengths):
    pieces = [chr(97 + i % 26) * n for i, n in enumerate(lengths)]
    blocks = list(_blocks(pieces))
    assert "".join(blocks) == "".join(pieces)
    assert all(blocks) and all(len(block) == _BLOCK for block in blocks[:-1])
