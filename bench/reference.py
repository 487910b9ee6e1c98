"""Independent references for every answer the benchmark checks.

Nothing here calls the function it checks.  Cohomology comes from the
Kuenneth closed form, Euler characteristics from Hirzebruch-Riemann-Roch
written through the Chern character and the Todd class, twists and
quotients from additivity of the Chern character, and display Chern
classes from the brute-force Whitney oracle in ``tests/whitney_oracle.py``.
The classification tables are the paper's, written out here.
"""

from __future__ import annotations

import json
import re

from whitney_oracle import quotient_chern

#: main22 in table order: (case id, minimal rank, c2).  Determinant (2, 2).
MAIN22 = (
    ("main22-1", 1, 0),
    ("main22-2", 2, 2),
    ("main22-2-swap", 2, 2),
    ("main22-3", 2, 2),
    ("main22-4", 2, 3),
    ("main22-5", 1, 4),
    ("main22-6", 2, 4),
    ("main22-6-1", 2, 4),
    ("main22-6-1-swap", 2, 4),
    ("main22-6-1-1", 2, 4),
    ("main22-6-1-2", 3, 4),
    ("main22-6-1-2-swap", 3, 4),
    ("main22-6-2", 4, 4),
    ("main22-6-3", 2, 4),
    ("main22-6-3-swap", 2, 4),
    ("main22-7", 1, 5),
    ("main22-8", 1, 6),
    ("main22-8-swap", 1, 6),
    ("main22-9", 1, 6),
    ("main22-10", 1, 8),
    ("main22-11", 1, 7),
    ("main22-12", 1, 8),
    ("main22-13", 1, 8),
)

#: quadric21 in table order.  Determinant (2, 1).
QUADRIC21 = (
    ("quadric21-1", 1, 0),
    ("quadric21-2", 2, 1),
    ("quadric21-3", 2, 2),
    ("quadric21-4", 1, 3),
    ("quadric21-5", 1, 4),
)

TABLE_C1 = {"main22": (2, 2), "quadric21": (2, 1)}

#: The parameter-free tables, in the order ``verify all`` sweeps them.
_BOTH = (("main22", MAIN22), ("quadric21", QUADRIC21))

#: Families whose verification adds the module-profile reconstruction check.
RECONSTRUCTIBLE = frozenset({"main22-9", "main22-11", "main22-12", "main22-13"})

BASE_CHECKS = ("rank", "c1", "c2", "c2_bound", "chi_nonnegative", "multiplicities")


def halfmax_table(c1: tuple[int, int], b: int) -> tuple[tuple[str, int, int], ...]:
    a, cb = c1
    if b == cb:
        return (("halfmax-split", 1, 0),)
    return (("halfmax-general", 2, a * (cb - b)),)


def nearmax_table(c1: tuple[int, int]) -> tuple[tuple[str, int, int], ...]:
    a, b = c1
    return (("nearmax-1", 2, a + b - 2), ("nearmax-2", 2, a + b - 1), ("nearmax-3", 1, a + b))


def sweep_total(table: tuple[tuple[str, int, int], ...], rank_max: int, rank_min: int = 1) -> int:
    """Number of reports a sweep of the table from rank_min to rank_max yields."""
    return sum(max(0, rank_max - max(rank_min, lo) + 1) for _, lo, _ in table)


# --- closed forms -----------------------------------------------------------


def dot(x: tuple[int, int], y: tuple[int, int]) -> int:
    return x[0] * y[1] + x[1] * y[0]


def kunneth(a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of O(a, b): products of the cohomology of O(a) and O(b)
    on the two rulings."""
    f0, f1 = max(a + 1, 0), max(-a - 1, 0)
    g0, g1 = max(b + 1, 0), max(-b - 1, 0)
    return (f0 * g0, f0 * g1 + f1 * g0, f1 * g1)


def chern_character(rank: int, c1: tuple[int, int], c2: int) -> tuple[int, tuple[int, int], int]:
    """(rank, c1, 2*ch2) of a sheaf with the given Chern data."""
    return (rank, c1, dot(c1, c1) - 2 * c2)


def from_character(rank: int, c1: tuple[int, int], ch2x2: int) -> tuple[int, tuple[int, int], int]:
    twice_c2 = dot(c1, c1) - ch2x2
    assert twice_c2 % 2 == 0
    return (rank, c1, twice_c2 // 2)


def rr_chi(rank: int, c1: tuple[int, int], c2: int, p: int, q: int) -> int:
    """chi(E(p, q)) = deg(ch(E(p, q)) td), with td = 1 + (1,1) + [pt]."""
    _, c1t, ch2x2 = twist(rank, c1, c2, (p, q))
    return ch2x2 // 2 + dot(c1t, (1, 1)) + rank


def twist(rank: int, c1: tuple[int, int], c2: int, line: tuple[int, int]) -> tuple[int, tuple[int, int], int]:
    """Chern character of E(line) = ch(E) ch(O(line)), as (rank, c1, 2*ch2)."""
    _, _, ch2x2 = chern_character(rank, c1, c2)
    c1t = (c1[0] + rank * line[0], c1[1] + rank * line[1])
    return (rank, c1t, ch2x2 + 2 * dot(c1, line) + rank * dot(line, line))


def twist_numerics(rank: int, c1: tuple[int, int], c2: int, line: tuple[int, int]) -> tuple[int, int, int, int]:
    r, c1t, c2t = from_character(*twist(rank, c1, c2, line))
    return (r, c1t[0], c1t[1], c2t)


def oracle_numerics(sub, mid, coker=None) -> tuple[int, tuple[int, int], int]:
    """Whitney-oracle (rank, c1, c2) of a display whose terms are
    ((a, b), multiplicity).  Trivial summands contribute only rank, so they
    are counted here and left out of the oracle's products; that keeps the
    oracle fast at ranks near a million."""

    def split(terms):
        rank = sum(m for _, m in terms)
        kept = [(d, m) for d, m in terms if d != (0, 0)]
        if any(m > 1000 for _, m in kept):
            raise ValueError("a non-trivial summand has a rank-sized multiplicity")
        return rank, kept

    sub_rank, sub_kept = split(sub)
    mid_rank, mid_kept = split(mid)
    rank, c1, c2 = quotient_chern(sub_kept, mid_kept, coker)
    return (rank + mid_rank - sum(m for _, m in mid_kept) - (sub_rank - sum(m for _, m in sub_kept)), c1, c2)


def case_display(case, r: int):
    """(sub, mid, coker) of a catalog case at rank r, in the oracle's
    primitive form: multiplicities evaluated as const + coef * r."""

    def at(terms):
        return [((d.a, d.b), m.const + m.coef * r) for d, m in terms]

    coker = None
    if case.coker is not None:
        kind = case.coker.kind.value
        if kind == "curve":
            support = (case.coker.support.a, case.coker.support.b)
            coker = (kind, support, case.coker.twist_degree)
        else:
            coker = (kind,)
    return at(case.sub_terms), at(case.mid_terms), coker


def e2_entries(c2: int, rank: int, variant: str | None) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    """The paper's second page: (p, q) -> (rank, c1a, c1b, 2*ch2) of each entry."""
    n0 = rank + 8 - c2
    entries = {(0, 0): (n0, 0, 0, 0)}
    if c2 == 6:
        entries[(-2, 1)] = (2, -2, -2, 4)
    elif c2 == 7:
        entries[(-2, 1)] = (1, -2, -2, 8)
        entries[(-1, 1)] = (0, 0, 0, 2)
    elif variant == "curve_torsion":
        entries[(-1, 1)] = (0, 2, 2, -8)
    else:
        entries[(-2, 1)] = (1, -2, -2, 8)
        entries[(-1, 1)] = (1, 0, 0, 0)
    return entries


# --- the CLI mix ------------------------------------------------------------

_CASE_LINE = re.compile(r"^(\S+): 0 -> .+ -> E -> .+ -> 0  \[min_rank (\d+), c2 (\d+)\]( twin_of=\S+)?$")
_VERIFY_LINE = re.compile(r"^(\S+)  c2=(\d+)  r=(\d+)\.\.(\d+)  weak_fano=(yes|no)  PASS$")


def _check_case_lines(text: str, table) -> str | None:
    lines = text.splitlines()
    if len(lines) != len(table):
        return f"expected {len(table)} case lines, got {len(lines)}"
    for line, (cid, lo, c2) in zip(lines, table):
        m = _CASE_LINE.match(line)
        if not m or m.groups()[:3] != (cid, str(lo), str(c2)):
            return f"case line {line!r} does not match {cid} min_rank {lo} c2 {c2}"
    return None


def _check_verify_text(text: str) -> str | None:
    lines = text.splitlines()
    rows = [(theorem, row) for theorem, table in _BOTH for row in table]
    total = sum(sweep_total(table, 10) for _, table in _BOTH)
    if len(lines) != len(rows) + 1:
        return f"expected {len(rows) + 1} lines, got {len(lines)}"
    for line, (theorem, (cid, lo, c2)) in zip(lines, rows):
        weak_fano = "yes" if c2 < dot(TABLE_C1[theorem], TABLE_C1[theorem]) else "no"
        m = _VERIFY_LINE.match(line)
        if not m or m.groups() != (cid, str(c2), str(lo), "10", weak_fano):
            return f"verify line {line!r} does not match {cid}"
    if lines[-1] != f"summary: {total}/{total} checks passed, 0 failed":
        return f"bad summary line {lines[-1]!r}"
    return None


def check_sweep_document(document: dict, tables, rank_max: int, invocation: str) -> str | None:
    """Check a ``verify --format json`` document against the tables: every
    report passes, reports come in table-then-rank order, and each report's
    numerics are the table's."""
    expected = [
        (cid, r, theorem, c2)
        for theorem, table in tables
        for cid, lo, c2 in table
        for r in range(lo, rank_max + 1)
    ]
    summary = document.get("summary")
    if summary != {"total": len(expected), "passed": len(expected), "failed": 0}:
        return f"summary {summary} does not report {len(expected)} passing checks"
    if document.get("invocation") != invocation:
        return f"invocation {document.get('invocation')!r} != {invocation!r}"
    results = document.get("results", [])
    if len(results) != len(expected):
        return f"{len(results)} results, expected {len(expected)}"
    for res, (cid, r, theorem, c2) in zip(results, expected):
        c1 = list(TABLE_C1[theorem])
        if (
            res["case_id"] != cid
            or res["rank_tested"] != r
            or res["computed"] != {"rank": r, "c1": c1, "c2": c2}
            or res["expected_c2"] != c2
            or res["passed"] is not True
            or not all(chk["passed"] is True for chk in res["checks"])
        ):
            return f"report for {cid} at rank {r} disagrees with the table: {res}"
    return None


def _check_halfmax_json(text: str) -> str | None:
    cases = json.loads(text)["cases"]
    if len(cases) != 1:
        return f"expected one halfmax case, got {len(cases)}"
    case = cases[0]
    sub = [(tuple(t["deg"]), t["mult"]) for t in case["sub"]]
    mid = [(tuple(t["deg"]), t["mult"]) for t in case["mid"]]
    if case["id"] != "halfmax-general" or case["min_rank"] != 2 or case["coker"] is not None:
        return f"unexpected halfmax case {case['id']} min_rank {case['min_rank']}"
    r = case["min_rank"]
    at_r = [(d, r - 2 if m == "r-2" else m) for d, m in mid]
    got = oracle_numerics(sub, at_r)
    if got != (r, (3, 2), 3) or case["flags"]["weak_fano"] is not True:
        return f"halfmax display gives {got}, expected rank {r} c1 (3,2) c2 3"
    return None


def _literal(expected: str):
    def check(text: str) -> str | None:
        return None if text == expected else f"expected {expected!r}, got {text[:200]!r}"

    return check


def _json_check(tables, rank_max: int, invocation: str):
    def check(text: str) -> str | None:
        return check_sweep_document(json.loads(text), tables, rank_max, invocation)

    return check


BONDAL_6_4 = """\
second page for c2=6, rank r=4
  (p,q)=(0,0): O^6
  (p,q)=(-1,1): 0
  (p,q)=(-2,1): O(-1,-1)^2
  four-term identity: PASS
  converges to rank=4 c1=(2,2) c2=6: PASS
module-profile reconstruction: (rank 4, c1 (2,2), 2ch2 -4): PASS
"""

BONDAL_8_5 = """\
second page for c2=8, rank r=5, variant structure_sheaf
  (p,q)=(0,0): O^5
  (p,q)=(-1,1): O
  (p,q)=(-2,1): O(-2,-2)
  four-term identity: PASS
  converges to rank=5 c1=(2,2) c2=8: PASS
module-profile reconstruction: (rank 5, c1 (2,2), 2ch2 -8): PASS
"""

#: The cold CLI mix: (argv, expected exit code, stdout check).  The first
#: ten are the README's documented commands; then the JSON form of
#: ``verify all`` and two documented usage errors (exit 2, empty stdout).
CLI_MIX: tuple[tuple[tuple[str, ...], int, object], ...] = (
    (("cohomology", "-3", "0"), 0, _literal("h0=0 h1=2 h2=0 chi=-2\n")),
    (("chi", "2", "2", "2", "5", "0", "0"), 0, _literal("5\n")),
    (("twist", "2", "1", "1", "1", "1", "0"), 0, _literal("rank=2 c1=(3,1) c2=2\n")),
    (("ses", "--sub=-1,-2", "--mid", "1,0", "--mid", "0,0:3"), 0, _literal("rank=3 c1=(2,2) c2=6\n")),
    (("bondal", "6", "4"), 0, _literal(BONDAL_6_4)),
    (("bondal", "8", "5", "--variant", "structure_sheaf"), 0, _literal(BONDAL_8_5)),
    (("catalog", "list", "--theorem", "main22"), 0, lambda text: _check_case_lines(text, MAIN22)),
    (
        ("catalog", "list", "--theorem", "halfmax", "--c1", "3,2", "--b-param", "1", "--format", "json"),
        0,
        _check_halfmax_json,
    ),
    (("verify", "all"), 0, _check_verify_text),
    (
        ("verify", "main22", "--rank-max", "10", "--format", "json"),
        0,
        _json_check((("main22", MAIN22),), 10, "nefq2 verify main22 --rank-max 10 --format json"),
    ),
    (("verify", "all", "--format", "json"), 0, _json_check(_BOTH, 10, "nefq2 verify all --format json")),
    (("catalog", "list", "--theorem", "nearmax"), 2, _literal("")),
    (("bondal", "5", "3"), 2, _literal("")),
)


def command_key(argv: tuple[str, ...], code: int) -> str:
    """The ``cli.<key>_ms`` name an invocation is grouped under."""
    return "usage_error" if code == 2 else argv[0]


def check_invocation(index: int, code: int, out: str, err: str) -> str | None:
    """None when an invocation of CLI_MIX[index] behaved as documented."""
    argv, want_code, check = CLI_MIX[index]
    if code != want_code:
        return f"{' '.join(argv)}: exit {code}, expected {want_code}: {err.strip()[:200]}"
    if want_code == 2 and not err.startswith("error: "):
        return f"{' '.join(argv)}: usage error without an 'error:' message: {err[:200]!r}"
    try:
        problem = check(out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problem = f"unreadable output ({exc!r})"
    return f"{' '.join(argv)}: {problem}" if problem else None
