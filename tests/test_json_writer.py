"""The verify document is written in 64 KiB blocks: a proved case's rows
from one template per case, any other case's row by row.  It must be
exactly what json.dumps(..., sort_keys=True, indent=2) prints for the
document of the reports' to_json() dicts, on the command line's runs and
on random displays, and each proved case's template must give the row
text of every rank."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tracemalloc
from json.encoder import encode_basestring_ascii, py_encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catalog import _grid_cases
from test_certificate_properties import cases as random_cases
from test_cli import _child_env

from nefq2 import BiDegree, NefQ2Error, __version__, list_cases, verify_all
from nefq2._value import replace
from nefq2.catalog import CaseSpec, RankExpr, certify, verify_case
from nefq2.cli import main
from nefq2.cohomology import _chi
from nefq2.picard import ZERO
from nefq2.report_json import _BLOCK, _blocks, _case_text, _row_text, _template, string, write_verify_json

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


#: Quotes, backslashes, control characters, non-ASCII, astral characters
#: and lone surrogates.
_AWKWARD = ('"', "\\", 'a"b\\c', "\x00\x08\t\n\x0c\r\x1f\x7f", "é∞３", "\U0001f600", "\ud800", "x\udfffy", "\udfff\ud800")


@pytest.mark.parametrize("text", _AWKWARD, ids=ascii)
def test_escaper_equals_the_json_encoder(text):
    # the C escaper of _json, and the Python one a build without it uses
    assert string(text) == encode_basestring_ascii(text) == py_encode_basestring_ascii(text)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, sys.maxunicode).map(chr)).map("".join))  # lone surrogates too
def test_escaper_equals_the_json_encoder_on_any_text(text):
    assert string(text) == encode_basestring_ascii(text) == py_encode_basestring_ascii(text)


_WITHOUT_C_ENCODER = """
import sys
sys.modules["_json"] = None
from nefq2 import report_json
from nefq2.cli import main
code = main(sys.argv[1:])
print(report_json.string.__module__, file=sys.stderr)
sys.exit(code)
"""


def test_rank_300_sweep_bytes_without_the_c_encoder():
    # an interpreter without _json escapes with json.encoder's Python code
    argv = ["verify", "main22", "--rank-max", "300", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_ENCODER, *argv], env=_child_env(), capture_output=True, timeout=120
    )
    assert (proc.returncode, proc.stderr, len(proc.stdout)) == (0, b"json.encoder\n", 8_467_160)
    assert hashlib.sha256(proc.stdout).hexdigest() == "e813117018b808befda56e541da709738be509c169b9bdbdb62f998282ba6346"


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


#: Where a row's text starts: the case ids of these tables hold no newline.
_ROW_START = '{\n      "case_id": '


def _filled_rows(case, fill, lo, hi) -> list[int]:
    """Assert that fill(lo, hi) gives the row texts of ranks lo..hi-1,
    joined by ",\n" in whole batches, and return the batch lengths."""
    text = _case_text(case)
    rows = [_row_text(text, certify(case).row(r)) for r in range(lo, hi)]
    lengths, start = [], 0
    for batch in fill(lo, hi):
        lengths.append(batch.count(_ROW_START))
        assert batch == ",\n".join(rows[start : start + lengths[-1]]), (case.id, lo + start)
        start += lengths[-1]
    assert start == len(rows) and all(lengths), (case.id, lo, hi)
    return lengths


def test_template_gives_the_row_text_of_every_rank():
    # the decimals of r and of chi = k + r change width at 10, 100, 1000
    # and 10**6; each window crosses both, inside a batch that starts
    # elsewhere, and the k = 0 cases put chi's decimal in all 5 places
    shipped = list(list_cases("all"))
    parametric = [case for case in _grid_cases() if case.theorem in ("halfmax", "nearmax")]
    assert len(parametric) > 50
    # O(0,1) -> O^(r+1) -> E: chi = r - 1, so chi's decimals start below r's
    negative = CaseSpec(
        id="k = -1",
        theorem="main22",
        c1=BiDegree(0, -1),
        sub_terms=((BiDegree(0, 1), RankExpr(1)),),
        mid_terms=((ZERO, RankExpr(1, 1)),),
        coker=None,
        expected_c2=0,
        globally_generated=True,
        bondal_reconstructible=False,
    )
    ks, k_zero = set(), set()
    for case in shipped + parametric + [negative]:
        text = _case_text(case)
        fill = _template(case, text)
        assert fill is not None and certify(case).proved_from(case.min_rank), case.id
        row = certify(case).row(case.min_rank)
        k = _chi(0, row.c1, row.c2)
        ks.add(k)
        if k == 0:
            k_zero.add(case.id if case.theorem == "main22" else (case.id, row.c1))
        assert _filled_rows(case, fill, case.min_rank, case.min_rank + 1) == [1]
        batch = next(fill(case.min_rank, 10**4)).count(_ROW_START)
        assert batch > 1
        for edge in (10, 100, 1000, 10**6):
            lo = max(case.min_rank, min(edge, edge - k) - batch - batch // 2 - 1)
            lengths = _filled_rows(case, fill, lo, max(edge, edge - k) + batch)
            assert lengths[0] == batch and len(lengths) >= 2
    assert k_zero == {"main22-10", "main22-12", "main22-13", ("halfmax-split", BiDegree(0, 0))}
    assert min(ks) == -1



def test_template_of_a_large_k_makes_two_decimals_a_row():
    # --c1 has no upper bound, and neither has k: halfmax at c1 (1000, 1000)
    # has k = 1002000, and O(0,1000) -> O^(r+1) -> E has k = -1000.  Each
    # batch takes its own run of decimals for r and for k + r, never the
    # n + |k| decimals of one shared run.
    (split,) = list_cases("halfmax", c1=BiDegree(1000, 1000), b=1000)
    below = CaseSpec(
        id="k = -1000",
        theorem="main22",
        c1=BiDegree(0, -1000),
        sub_terms=((BiDegree(0, 1000), RankExpr(1)),),
        mid_terms=((ZERO, RankExpr(1, 1)),),
        coker=None,
        expected_c2=0,
        globally_generated=True,
        bondal_reconstructible=False,
    )
    for case, lo, k in ((split, split.min_rank, 1002000), (below, 1000, -1000)):
        row = certify(case).row(lo)
        assert _chi(0, row.c1, row.c2) == k and certify(case).proved_from(lo), case.id
        fill = _template(case, _case_text(case))
        batch = next(fill(lo, 10**4)).count(_ROW_START)
        assert 1 < batch < abs(k)
        for edge in (lo, 10**4, 10**7 - k):
            start = max(lo, edge - batch - batch // 2 - 1)
            assert len(_filled_rows(case, fill, start, edge + batch + 1)) >= 2, (case.id, edge)
        tracemalloc.start()
        try:
            for _ in fill(10**6, 10**6 + 3 * batch):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _BLOCK, (case.id, peak)


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
