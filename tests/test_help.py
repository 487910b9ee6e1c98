"""The help text of ``nefq2 -h`` and of every command's ``-h``.

Each help line is written here as a literal, not read from the grammar in
``nefq2.cli``, so an edit to a help string fails this file.  The checks
are of membership, not of whole bytes, since argparse's own headings and
layout differ between Python versions.  ``COLUMNS`` is set wide enough
that argparse wraps no line.
"""

from __future__ import annotations

import pytest

from nefq2.cli import main

#: argv -> the text its help must print, piece by piece.
HELP = {
    ("-h",): (
        "usage: nefq2 [-h] [--version] {cohomology,chi,twist,ses,bondal,catalog,verify} ...",
        "Exact cohomology, K-theory and classification checks on the quadric surface.",
        "cohomology          h^i of the line bundle O(a,b)",
        "chi                 Euler characteristic of a twisted bundle",
        "twist               Chern data of E tensor O(la,lb)",
        "ses                 quotient Chern data for 0 -> sub -> mid -> Q -> 0 of line bundle sums",
        "bondal              second page and module-profile reconstruction",
        "catalog             the classification tables",
        "verify              recompute and check a table",
        "--version             show program's version number and exit",
    ),
    ("cohomology", "-h"): ("usage: nefq2 cohomology [-h] a b",),
    ("chi", "-h"): ("usage: nefq2 chi [-h] rank c1a c1b c2 p q",),
    ("twist", "-h"): ("usage: nefq2 twist [-h] rank c1a c1b c2 la lb",),
    ("ses", "-h"): (
        "usage: nefq2 ses [-h] [--sub A,B[:MULT]] [--mid A,B[:MULT]]",
        "--sub A,B[:MULT]  line bundle summand of the sub (repeatable)",
        "--mid A,B[:MULT]  line bundle summand of the middle (repeatable)",
    ),
    ("bondal", "-h"): (
        "usage: nefq2 bondal [-h] [--variant {curve_torsion,structure_sheaf}] c2 rank",
        "required meaning for c2=8; omitted there, both variants print",
    ),
    ("catalog", "-h"): (
        "usage: nefq2 catalog [-h] {list} ...",
        "list      list the cases of a table",
    ),
    ("catalog", "list", "-h"): (
        "usage: nefq2 catalog list [-h] [--theorem {main22,quadric21,halfmax,nearmax,all}] [--c1 A,B]"
        " [--b-param B_PARAM] [--format {text,json}]",
        "table to list ('all' = both parameter-free tables)",
        "--c1 A,B              determinant for parametric tables",
        "--b-param B_PARAM     splitting degree for halfmax",
    ),
    ("verify", "-h"): (
        "usage: nefq2 verify [-h] [--rank-min RANK_MIN] [--rank-max RANK_MAX] [--c1 A,B] [--b-param B_PARAM]"
        " [--format {text,json}] {main22,quadric21,halfmax,nearmax,all}",
    ),
}


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_prints_every_help_string(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exit_.value.code, err) == (0, "")
    assert [piece for piece in HELP[argv] if piece not in out] == []
