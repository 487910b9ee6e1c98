"""The JSON documents of the command line, each in the layout of
``json.dumps(document, sort_keys=True, indent=2)``.

The verify document is written report by report from the case
certificates' rows and one template in sorted key order, byte for byte
what json.dumps prints for the reports' ``to_json()`` dicts.  Only
``--format json`` loads this module.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as string
from typing import Any, Callable, Iterable

from . import __version__
from .catalog import CaseSpec, VerificationReport, case_to_json

#: How json.dumps prints the schema's literals.
_LITERAL = {True: "true", False: "false", None: "null"}


def write_catalog_json(cases: Iterable[CaseSpec], write: Callable[[str], Any]) -> None:
    """Write the document {"cases": [case_to_json(case), ...]}."""
    write(json.dumps({"cases": [case_to_json(case) for case in cases]}, sort_keys=True, indent=2) + "\n")


def write_verify_json(
    invocation: str,
    swept: Iterable[tuple[CaseSpec, int, int, Iterable[VerificationReport]]],
    passed: int,
    total: int,
    write: Callable[[str], Any],
) -> None:
    """Write the document {"invocation", "results", "summary",
    "tool_version"}, whose results are the rows' ``to_json()`` over the
    (case, lo, passed, rows) of ``Certificate.rows``, and whose summary holds
    the given counts."""
    write(f'{{\n  "invocation": {string(invocation)},\n  "results": ')
    lead = "[\n"
    for case, _, _, rows in swept:
        flags = case.flags()
        top = f'    {{\n      "case_id": {string(case.id)},\n      "checks": [\n'
        middle = (
            f'      "expected_c2": {case.expected_c2},\n      "flags": {{\n'
            f'        "bondal_reconstructible": {_LITERAL[flags["bondal_reconstructible"]]},\n'
            f'        "globally_generated": {_LITERAL[flags["globally_generated"]]},\n'
            f'        "nef": {string(flags["nef"])},\n        "weak_fano": '
        )
        for _, r, rank, c1, c2, weak_fano, checks, verdict in rows:
            text = ",\n".join(
                [
                    f'        {{\n          "detail": {string(detail)},\n          "name": {string(name)},\n'
                    f'          "passed": {_LITERAL[ok]}\n        }}'
                    for name, ok, detail in checks
                ]
            )
            write(
                f'{lead}{top}{text}\n      ],\n'
                f'      "computed": {{\n        "c1": [\n          {c1.a},\n          {c1.b}\n        ],\n'
                f'        "c2": {c2},\n        "rank": {rank}\n      }},\n'
                f'{middle}{_LITERAL[weak_fano]}\n      }},\n'
                f'      "passed": {_LITERAL[verdict]},\n'
                f'      "rank_tested": {r}\n    }}'
            )
            lead = ",\n"
    write("[]" if lead == "[\n" else "\n  ]")
    write(
        f',\n  "summary": {{\n    "failed": {total - passed},\n    "passed": {passed},\n'
        f'    "total": {total}\n  }},\n  "tool_version": {string(__version__)}\n}}\n'
    )
