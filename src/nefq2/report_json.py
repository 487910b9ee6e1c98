"""The JSON documents of the command line, each in the layout of
``json.dumps(document, sort_keys=True, indent=2)``.

The verify document is written from the case certificates' rows, each
row's text by ``_row_text`` in sorted key order, byte for byte what
json.dumps prints for the report's ``to_json()`` dict.  A case whose
``Certificate.rows`` hands over k = chi at rank 0, the mark of a proved
case, is written from one template per case: its row at a sentinel rank
far above any sweep, cut once into the constant pieces between the
decimals of that rank and of its chi.  Its rows are then filled in
batches of about one block, each batch joined in C from the pieces and
two runs of decimals, of r and of chi = k + r, with no Python code run
per row.  The document is ASCII, and it is written in blocks of
``_BLOCK`` characters, whatever the length of its rows, so the run holds
at most one block and one batch.  Only ``--format json`` loads
this module, and the verify document loads no ``json`` package: its
strings are escaped by the C encoder of ``_json``.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

try:
    from _json import encode_basestring_ascii as string
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import encode_basestring_ascii as string

from . import __version__
from .catalog import CaseSpec, case_to_json

if TYPE_CHECKING:
    from .verify import VerificationReport

#: How json.dumps prints the schema's literals.
_LITERAL = {True: "true", False: "false", None: "null"}
#: Characters (and bytes: the text is ASCII) in one write: 64 KiB, the
#: capacity of a Linux pipe, so a reader draining one reads whole blocks.
_BLOCK = 1 << 16
#: The rank of a proved case's template row: its decimal, and that of its
#: chi, are long enough to occur in no other field of a shipped row.
_SENTINEL = 10**30


def write_catalog_json(cases: Iterable[CaseSpec], write: Callable[[str], Any]) -> None:
    """Write the document {"cases": [case_to_json(case), ...]}."""
    import json

    write(json.dumps({"cases": [case_to_json(case) for case in cases]}, sort_keys=True, indent=2) + "\n")


def _case_text(case: CaseSpec) -> tuple[str, str]:
    """The text of a case's rows before their checks, and from expected_c2
    up to the weak_fano flag's value."""
    flags = case.flags()
    top = f'    {{\n      "case_id": {string(case.id)},\n      "checks": [\n'
    middle = (
        f'      "expected_c2": {case.expected_c2},\n      "flags": {{\n'
        f'        "bondal_reconstructible": {_LITERAL[flags["bondal_reconstructible"]]},\n'
        f'        "globally_generated": {_LITERAL[flags["globally_generated"]]},\n'
        f'        "nef": {string(flags["nef"])},\n        "weak_fano": '
    )
    return top, middle


def _row_text(case_text: tuple[str, str], row: VerificationReport) -> str:
    """The text of ``row.to_json()`` in the document."""
    top, middle = case_text
    _, r, rank, c1, c2, weak_fano, checks, verdict = row
    text = ",\n".join(
        [
            f'        {{\n          "detail": {string(detail)},\n          "name": {string(name)},\n'
            f'          "passed": {_LITERAL[ok]}\n        }}'
            for name, ok, detail in checks
        ]
    )
    return (
        f'{top}{text}\n      ],\n'
        f'      "computed": {{\n        "c1": [\n          {c1.a},\n          {c1.b}\n        ],\n'
        f'        "c2": {c2},\n        "rank": {rank}\n      }},\n'
        f'{middle}{_LITERAL[weak_fano]}\n      }},\n'
        f'      "passed": {_LITERAL[verdict]},\n'
        f'      "rank_tested": {r}\n    }}'
    )


def _template(case: CaseSpec, case_text: tuple[str, str], k: int) -> Callable[[int, int], Iterator[str]] | None:
    """The row texts of a proved case at the ranks lo..hi-1 it is proved
    at, joined by ",\n" in batches of about one block, as a fill of its row
    at the sentinel rank R: the decimal of R stands for r in 4 places
    (rank_tested, the computed rank and twice in the rank detail) and that
    of k + R for chi = k + r in one, with k = chi at rank 0.  None when
    those decimals occur otherwise in the text (k = 0 puts one decimal in
    all 5 places)."""
    from .verify import certify  # loaded by verify, not by the catalog document

    text = _row_text(case_text, certify(case).row(_SENTINEL))
    rank, chi = str(_SENTINEL), str(k + _SENTINEL)
    if (text.count(rank), text.count(chi)) != ((5, 5) if k == 0 else (4, 1)):
        return None
    # a row's constant pieces, and whether each gap between two of them
    # holds k + r (else r)
    pieces: list[str] = []
    chi_at: list[bool] = []
    for i, part in enumerate(text.split(chi)):
        for j, piece in enumerate(part.split(rank)):
            if i or j:
                chi_at.append(j == 0)
            pieces.append(piece)
    batch = max(1, _BLOCK // len(text))

    def fill(lo: int, hi: int) -> Iterator[str]:
        for start in range(lo, hi, batch):
            stop = min(start + batch, hi)
            r_col = list(map(str, range(start, stop)))
            chi_col = list(map(str, range(start + k, stop + k)))
            columns: list[Iterable[str]] = [repeat(pieces[0])]
            for chi_here, piece in zip(chi_at, pieces[1:]):
                columns += chi_col if chi_here else r_col, repeat(piece)
            yield ",\n".join(map("".join, zip(*columns)))

    return fill


def _blocks(pieces: Iterable[str]) -> Iterator[str]:
    """The concatenation of pieces, cut into blocks of ``_BLOCK``
    characters and a shorter last one."""
    held: list[str] = []
    size = 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _BLOCK:
            text = "".join(held)
            cut = size - size % _BLOCK
            yield from (text[i : i + _BLOCK] for i in range(0, cut, _BLOCK))
            held, size = [text[cut:]], size - cut
    if size:
        yield "".join(held)


def _verify_pieces(
    invocation: str,
    swept: Iterable[tuple[CaseSpec, int, int, Iterable[VerificationReport], int | None]],
    passed: int,
    total: int,
) -> Iterator[str]:
    """The verify document's text, in pieces of at most one row or one
    batch of a template's rows."""
    yield f'{{\n  "invocation": {string(invocation)},\n  "results": '
    sep = "[\n"
    for case, lo, count, rows, k in swept:
        case_text = _case_text(case)
        fill = None if k is None else _template(case, case_text, k)
        if fill is not None:  # proved: every row passes, and count is the number of ranks
            texts: Iterable[str] = fill(lo, lo + count)
        else:
            texts = (_row_text(case_text, row) for row in rows)
        for text in texts:
            yield sep + text
            sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"
    yield (
        f',\n  "summary": {{\n    "failed": {total - passed},\n    "passed": {passed},\n'
        f'    "total": {total}\n  }},\n  "tool_version": {string(__version__)}\n}}\n'
    )


def write_verify_json(
    invocation: str,
    swept: Iterable[tuple[CaseSpec, int, int, Iterable[VerificationReport], int | None]],
    passed: int,
    total: int,
    write: Callable[[str], Any],
) -> None:
    """Write the document {"invocation", "results", "summary",
    "tool_version"}, whose results are the rows' ``to_json()`` over the
    (case, lo, passed, rows, k) of ``Certificate.rows``, and whose summary
    holds the given counts."""
    for block in _blocks(_verify_pieces(invocation, swept, passed, total)):
        write(block)
