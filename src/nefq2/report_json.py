"""The JSON text of a verify sweep, written report by report.

``nefq2 verify --format json`` prints one document in the layout of
``json.dumps(document, sort_keys=True, indent=2)``.  ``write_sweep_json``
puts its results list together from the case certificates' rows and one
fixed template in sorted key order, byte for byte what json.dumps prints
for the reports' ``to_json()`` dicts, without building a report or a
dict.  Only the JSON output of ``verify`` loads this module.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as string
from typing import Any, Callable, Iterable

from .catalog import CaseSpec, Row

#: How json.dumps prints the schema's literals.
_LITERAL = {True: "true", False: "false", None: "null"}


def write_sweep_json(
    swept: Iterable[tuple[CaseSpec, int, bool, Iterable[Row]]], write: Callable[[str], Any]
) -> int:
    """Write [verify_case(case, r).to_json() for r in lo..] over the
    (case, lo, proved, rows) of ``Certificate.rows``, as the value of a key
    of a top-level object: the text json.dumps(..., sort_keys=True,
    indent=2) prints there.  Returns how many of the rows pass."""
    lead, count = "[\n", 0
    for case, lo, _, rows in swept:
        flags = case.flags()
        top = f'    {{\n      "case_id": {string(case.id)},\n      "checks": [\n'
        middle = (
            f'      "expected_c2": {case.expected_c2},\n      "flags": {{\n'
            f'        "bondal_reconstructible": {_LITERAL[flags["bondal_reconstructible"]]},\n'
            f'        "globally_generated": {_LITERAL[flags["globally_generated"]]},\n'
            f'        "nef": {string(flags["nef"])},\n        "weak_fano": '
        )
        for r, (rank, c1, c2, weak_fano, checks) in enumerate(rows, lo):
            text = ",\n".join(
                [
                    f'        {{\n          "detail": {string(detail)},\n          "name": {string(name)},\n'
                    f'          "passed": {_LITERAL[ok]}\n        }}'
                    for name, ok, detail in checks
                ]
            )
            passed = all([check[1] for check in checks])
            count += passed
            write(
                f'{lead}{top}{text}\n      ],\n'
                f'      "computed": {{\n        "c1": [\n          {c1.a},\n          {c1.b}\n        ],\n'
                f'        "c2": {c2},\n        "rank": {rank}\n      }},\n'
                f'{middle}{_LITERAL[weak_fano]}\n      }},\n'
                f'      "passed": {_LITERAL[passed]},\n      "rank_tested": {r}\n    }}'
            )
            lead = ",\n"
    write("[]" if lead == "[\n" else "\n  ]")
    return count
