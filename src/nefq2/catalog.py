"""Verified catalog of the nef-bundle classification families.

Four tables are shipped:

``main22``
    Rank-r nef bundles with determinant (2, 2): thirteen numbered
    families, the sub-splittings of family 6, and the swapped twins of
    every display that is asymmetric under exchanging the two rulings.
``quadric21``
    Determinant (2, 1): five families.
``halfmax``
    Determinant (c1a, c1b) with maximal c2 on one factor, parametrized by
    (c1a, c1b) and the splitting degree b of the second factor.
``nearmax``
    c2 one or two below the maximum, parametrized by (c1a, c1b): three
    families.

Each table is written as literal rows in the paper's order,
``(number, sub, mid, c2[, options])``.  sub and mid list
``((a, b), multiplicity)`` pairs and c2 is the tabulated second Chern
class.  The optional dict may set ``coker`` (a TorsionDescriptor, default
None), ``gg`` (globally generated, default True), ``bondal`` (satisfies
the reconstruction hypotheses, default False) and ``twin``: True places
the ruling-swapped twin of the row, id suffix ``-swap``, right after it.

Each CaseSpec records a four-term display 0 -> sub -> mid -> E -> coker
-> 0 whose sub and mid are direct sums of line bundles with
multiplicities affine in the rank r, together with provenance-free flags
(nef is asserted by the table, weak_fano, min_rank and the numerics are
always recomputed; nothing about a bundle is ever looked up).

JSON schema (stable, lexicographic key order):

    {"id": "main22-6-1-2", "theorem": "main22",
     "sub": [{"deg": [0, 0], "mult": 1}],
     "mid": [{"deg": [2, 0], "mult": 1}, {"deg": [0, 0], "mult": "r-3"}],
     "coker": null | {"kind": "point"} | {"kind": "structure"}
            | {"kind": "curve", "support": [2, 2], "twist_degree": 0},
     "min_rank": 3, "flags": {...}, "twin_of": null | "main22-6-1"}

Multiplicities follow the grammar  int | "r" | "r+int" | "r-int".
The flags object has keys nef ("asserted"), globally_generated
(true/false/null), weak_fano (derived: c2 < c1^2) and
bondal_reconstructible (whether the family satisfies the vanishing
hypotheses of the module-profile reconstruction).
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, Iterable, NamedTuple

from ._value import frozen, replace
from .bondal import reconstruct
from .cohomology import BundleNumerics, _chi
from .errors import HypothesisError, NefQ2Error, ReconstructionError
from .ktheory import KClass, TorsionDescriptor, TorsionKind, _chern_c2, _line_sum, four_term_quotient, torsion_class
from .picard import ZERO, BiDegree, intersect, is_effective

#: The names ``list_cases`` takes: the four tables, and both parameter-free ones.
THEOREMS = ("main22", "quadric21", "halfmax", "nearmax", "all")


@frozen
class RankExpr:
    """An integer multiplicity affine in the rank r: const + coef*r.

    Serialization only supports coef in {0, 1} (the grammar
    int | "r" | "r+int" | "r-int"), which covers every shipped display.

    >>> RankExpr.parse("r-2").evaluate(5)
    3
    >>> str(RankExpr(3, 1))
    'r+3'
    """

    const: int
    coef: int = 0

    def evaluate(self, r: int) -> int:
        """const + coef*r; a rank that is not an int raises TypeError."""
        if type(r) is not int:
            raise TypeError(f"rank must be an integer, got {r!r}")
        return self.const + self.coef * r

    @staticmethod
    def parse(text: str | int) -> RankExpr:
        if isinstance(text, int):
            return RankExpr(text)
        if not isinstance(text, str):
            raise TypeError(f"multiplicity must be an int or a str, got {text!r}")
        m = re.fullmatch(r"r([+-]\d+)?", text.strip())
        if not m:
            raise ValueError(f"bad multiplicity {text!r}; expected int, 'r', 'r+k' or 'r-k'")
        return RankExpr(int(m.group(1) or 0), 1)

    def render(self) -> int | str:
        if self.coef == 0:
            return self.const
        if self.coef != 1:
            raise ValueError(f"multiplicity {self.const}+{self.coef}r not in the grammar")
        if self.const == 0:
            return "r"
        return f"r+{self.const}" if self.const > 0 else f"r-{-self.const}"

    def __str__(self) -> str:
        return str(self.render())


Term = tuple[BiDegree, RankExpr]


def _terms(raw: Iterable[tuple[tuple[int, int], int | str]]) -> tuple[Term, ...]:
    return tuple((BiDegree(*deg), RankExpr.parse(mult)) for deg, mult in raw)


@frozen
class CaseSpec:
    """One classification family, as a four-term display."""

    id: str
    theorem: str
    c1: BiDegree
    sub_terms: tuple[Term, ...]
    mid_terms: tuple[Term, ...]
    coker: TorsionDescriptor | None
    expected_c2: int
    globally_generated: bool | None
    bondal_reconstructible: bool
    twin_of: str | None = None

    def __post_init__(self) -> None:
        for name in ("sub_terms", "mid_terms"):
            terms = getattr(self, name)
            if type(terms) is not tuple or any(
                type(t) is not tuple or tuple(map(type, t)) != Term.__args__ for t in terms
            ):
                raise TypeError(f"CaseSpec.{name} must be a tuple of (BiDegree, RankExpr) pairs, got {terms!r}")

    @functools.cached_property
    def min_rank(self) -> int:
        """The smallest r >= 1 at which every multiplicity c + k*r with k > 0
        is >= 0, derived from the display on first use."""
        return max([1] + [-(m.const // m.coef) for _, m in self.sub_terms + self.mid_terms if m.coef > 0])

    @functools.cached_property
    def _certificate(self) -> Certificate:
        base = _display_class(self, 0)
        return Certificate(self, base, _display_class(self, 1) - base)

    def flags(self) -> dict[str, Any]:
        return {
            "nef": "asserted",
            "globally_generated": self.globally_generated,
            "weak_fano": self.expected_c2 < intersect(self.c1, self.c1),
            "bondal_reconstructible": self.bondal_reconstructible,
        }


def _coker_json(coker: TorsionDescriptor | None) -> dict[str, Any] | None:
    if coker is None:
        return None
    if coker.kind is TorsionKind.CURVE_TORSION:
        assert coker.support is not None
        return {
            "kind": coker.kind.value,
            "support": [coker.support.a, coker.support.b],
            "twist_degree": coker.twist_degree,
        }
    return {"kind": coker.kind.value}


def case_to_json(case: CaseSpec) -> dict[str, Any]:
    """Serialize one case to the documented schema."""
    if type(case) is not CaseSpec:
        raise TypeError(f"case must be a CaseSpec, got {case!r}")
    return {
        "id": case.id,
        "theorem": case.theorem,
        "sub": [{"deg": [d.a, d.b], "mult": m.render()} for d, m in case.sub_terms],
        "mid": [{"deg": [d.a, d.b], "mult": m.render()} for d, m in case.mid_terms],
        "coker": _coker_json(case.coker),
        "min_rank": case.min_rank,
        "flags": case.flags(),
        "twin_of": case.twin_of,
    }


def _swapped(case: CaseSpec) -> CaseSpec:
    """The (a,b) -> (b,a) twin of a display, linked back to it."""

    def swap(terms: tuple[Term, ...]) -> tuple[Term, ...]:
        return tuple((d.swap(), m) for d, m in terms)

    return replace(
        case,
        id=f"{case.id}-swap",
        c1=case.c1.swap(),
        sub_terms=swap(case.sub_terms),
        mid_terms=swap(case.mid_terms),
        twin_of=case.id,
    )


def _table(theorem: str, c1: BiDegree, rows: Iterable[tuple[Any, ...]]) -> tuple[CaseSpec, ...]:
    """The cases of one table, in row order, each twin right after its row."""
    cases: list[CaseSpec] = []
    for number, sub, mid, c2, *options in rows:
        opts: dict[str, Any] = options[0] if options else {}
        case = CaseSpec(
            id=f"{theorem}-{number}",
            theorem=theorem,
            c1=c1,
            sub_terms=_terms(sub),
            mid_terms=_terms(mid),
            coker=opts.get("coker"),
            expected_c2=c2,
            globally_generated=opts.get("gg", True),
            bondal_reconstructible=opts.get("bondal", False),
        )
        cases.append(case)
        if opts.get("twin"):
            cases.append(_swapped(case))
    return tuple(cases)


_MAIN22 = (
    ("1", [], [((2, 2), 1), ((0, 0), "r-1")], 0),
    ("2", [], [((2, 1), 1), ((0, 1), 1), ((0, 0), "r-2")], 2, dict(twin=True)),
    ("3", [], [((1, 1), 2), ((0, 0), "r-2")], 2),
    # When the composite into the (1,1) summand vanishes, the middle splits off O(1,1)
    # and the display degenerates.
    ("4", [((0, 0), 1)], [((1, 1), 1), ((1, 0), 1), ((0, 1), 1), ((0, 0), "r-2")], 3),
    ("5", [((-1, -1), 1)], [((1, 1), 1), ((0, 0), "r")], 4),
    ("6", [((0, 0), 2)], [((1, 0), 2), ((0, 1), 2), ((0, 0), "r-2")], 4),
    ("6-1", [((0, 0), 1)], [((2, 0), 1), ((0, 1), 2), ((0, 0), "r-2")], 4, dict(twin=True)),
    ("6-1-1", [], [((2, 0), 1), ((0, 2), 1), ((0, 0), "r-2")], 4),
    ("6-1-2", [], [((2, 0), 1), ((0, 1), 2), ((0, 0), "r-3")], 4, dict(twin=True)),
    ("6-2", [], [((1, 0), 2), ((0, 1), 2), ((0, 0), "r-4")], 4),
    # Twin inferred from the table's ruling-symmetry remark.
    ("6-3", [((0, -1), 1)], [((1, 0), 2), ((0, 1), 1), ((0, 0), "r-2")], 4, dict(twin=True)),
    ("7", [((-1, -1), 1), ((-1, 0), 1), ((0, -1), 1)], [((0, 0), "r+3")], 5),
    # Twin inferred from the table's ruling-symmetry remark.
    ("8", [((-1, -2), 1)], [((1, 0), 1), ((0, 0), "r")], 6, dict(twin=True)),
    ("9", [((-1, -1), 2)], [((0, 0), "r+2")], 6, dict(bondal=True)),
    # Members force a one-dimensional h1, so there is no module-profile route.
    ("10", [((-2, -2), 1)], [((0, 0), "r+1")], 8),
    (
        "11",
        [((-2, -2), 1)],
        [((0, 0), "r+1")],
        7,
        dict(coker=TorsionDescriptor(TorsionKind.POINT_SHEAF), gg=False, bondal=True),
    ),
    (
        "12",
        [((-2, -2), 1)],
        [((0, 0), "r")],
        8,
        dict(coker=TorsionDescriptor(TorsionKind.STRUCTURE_SHEAF), gg=False, bondal=True),
    ),
    ("13", [((-1, -1), 4)], [((0, 0), "r"), ((-1, 0), 2), ((0, -1), 2)], 8, dict(gg=False, bondal=True)),
)

_QUADRIC21 = (
    ("1", [], [((2, 1), 1), ((0, 0), "r-1")], 0),
    ("2", [], [((1, 1), 1), ((1, 0), 1), ((0, 0), "r-2")], 1),
    ("3", [((0, 0), 1)], [((1, 0), 2), ((0, 1), 1), ((0, 0), "r-2")], 2),
    ("4", [((-1, -1), 1), ((-1, 0), 1)], [((0, 0), "r+2")], 3),
    ("5", [((-2, -1), 1)], [((0, 0), "r+1")], 4),
)

#: The parameter-free tables, built once at import.
_TABLES: dict[str, tuple[CaseSpec, ...]] = {
    "main22": _table("main22", BiDegree(2, 2), _MAIN22),
    "quadric21": _table("quadric21", BiDegree(2, 1), _QUADRIC21),
}


def _require_c1(theorem: str, c1: BiDegree | None) -> BiDegree:
    if c1 is None:
        raise HypothesisError(f"{theorem} is parametric: a determinant --c1 a,b is required")
    return c1


#: How many parameters of each parametric table keep their cases: a repeated
#: parameter gets the same tuple, and so the same certificates.
_PARAMETERS_KEPT = 256


@functools.lru_cache(maxsize=_PARAMETERS_KEPT)
def _halfmax_cases(c1: BiDegree, b: int) -> tuple[CaseSpec, ...]:
    if not is_effective(c1):
        raise HypothesisError(f"determinant {c1} of a nef bundle must be effective")
    if not 0 <= b <= c1.b:
        raise HypothesisError(f"splitting degree b={b} must lie in 0..{c1.b}")
    if b == c1.b:
        row = ("split", [], [((c1.a, c1.b), 1), ((0, 0), "r-1")], 0)
    else:
        mid = [((c1.a, b), 1), ((0, 1), c1.b - b), ((0, 0), "r-2")]
        row = ("general", [((0, 0), c1.b - b - 1)], mid, c1.a * (c1.b - b))
    return _table("halfmax", c1, [row])


@functools.lru_cache(maxsize=_PARAMETERS_KEPT)
def _nearmax_cases(c1: BiDegree) -> tuple[CaseSpec, ...]:
    if c1.a < 1 or c1.b < 1:
        raise HypothesisError(f"the near-maximal table needs both determinant degrees >= 1, got {c1}")
    down, top = (c1.a - 1, c1.b - 1), c1.a + c1.b
    rows = (
        ("1", [], [(down, 1), ((1, 1), 1), ((0, 0), "r-2")], top - 2),
        ("2", [((0, 0), 1)], [(down, 1), ((1, 0), 1), ((0, 1), 1), ((0, 0), "r-2")], top - 1),
        ("3", [((-1, -1), 1)], [(down, 1), ((0, 0), "r")], top),
    )
    return _table("nearmax", c1, rows)


def list_cases(
    theorem: str,
    *,
    c1: BiDegree | None = None,
    b: int | None = None,
) -> tuple[CaseSpec, ...]:
    """All cases of one table, in the table's own order (twins follow the
    display they swap).  halfmax needs c1 and b; nearmax needs c1 and
    takes no b; main22 and quadric21 take neither, and "all" is both."""
    if not (c1 is None or type(c1) is BiDegree) or not (b is None or type(b) is int):
        raise TypeError(f"c1 must be a BiDegree and b an integer, got {c1!r} and {b!r}")
    if theorem == "all":
        return tuple(case for table in _TABLES for case in list_cases(table, c1=c1, b=b))
    if theorem in _TABLES:
        if c1 is not None or b is not None:
            raise HypothesisError(f"{theorem} is not parametric: it takes no --c1 or --b-param")
        return _TABLES[theorem]
    if theorem == "halfmax":
        det = _require_c1(theorem, c1)
        if b is None:
            raise HypothesisError("halfmax is parametric: a splitting degree --b-param is required")
        return _halfmax_cases(det, b)
    if theorem == "nearmax":
        if b is not None:
            raise HypothesisError("nearmax takes no splitting degree --b-param")
        return _nearmax_cases(_require_c1(theorem, c1))
    raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")


def _display_class(case: CaseSpec, r: int) -> KClass:
    """Alternating K-sum of the display, term by term, at rank r."""
    sub, mid = ([(deg, mult.evaluate(r)) for deg, mult in terms] for terms in (case.sub_terms, case.mid_terms))
    coker = torsion_class(case.coker) if case.coker is not None else KClass.zero()
    return four_term_quotient(_line_sum(sub), _line_sum(mid), coker)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    """Outcome of every numeric check of one case at one rank: the case, the
    rank tested, the display's rank, c1 and c2 there, whether c2 < c1^2, the
    checks and whether all of them pass."""

    case: CaseSpec
    rank_tested: int
    rank: int
    c1: BiDegree
    c2: int
    weak_fano: bool
    checks: tuple[CheckResult, ...]
    passed: bool

    @property
    def case_id(self) -> str:
        return self.case.id

    @property
    def computed(self) -> BundleNumerics:
        return BundleNumerics(self.rank, self.c1, self.c2)

    @property
    def flags(self) -> dict[str, Any]:
        return {**self.case.flags(), "weak_fano": self.weak_fano}

    def to_json(self) -> dict[str, Any]:
        return {
            "case_id": self.case.id,
            "rank_tested": self.rank_tested,
            "computed": {"rank": self.rank, "c1": [self.c1.a, self.c1.b], "c2": self.c2},
            "expected_c2": self.case.expected_c2,
            "flags": self.flags,
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in self.checks],
            "passed": self.passed,
        }


_C1_22 = BiDegree(2, 2)
#: The class [O] of the trivial line bundle: the slope of every shipped display.
_SLOPE_O = KClass(1, ZERO, 0)


def _reconstruction_check(c1: BiDegree, c2: int) -> CheckResult:
    """The reconstruction check of a flagged case: the cached proof at c1
    (2,2) with c2 in 6..8, through the ``reconstruct`` of this module as it
    is at the call, and a failing check anywhere else."""
    if c1.a == 2 and c1.b == 2 and 6 <= c2 <= 8:
        return _reconstruction_proof(c2, reconstruct)
    needs = "the module profile needs c1 (2,2) and 6 <= c2 <= 8"
    return CheckResult("reconstruction", False, f"{needs}, got c1 ({c1.a},{c1.b}) and c2 {c2}")


#: What ``_steady`` makes: c1, c2, weak_fano, k = chi at rank 0, the c1, c2,
#: c2_bound and multiplicities checks, and whether all four pass.
_Steady = tuple[BiDegree, int, bool, int, tuple[CheckResult, ...], bool]


def _steady(case: CaseSpec, r: int, c1: BiDegree, c2: int) -> _Steady:
    """The part of the row at rank r of a display with this c1 and c2 that
    does not move with r on a flat display: c1, c2, weak_fano, k = chi at
    rank 0, the c1, c2, c2_bound and multiplicities checks, and their
    verdict, decided here in plain ints."""
    a, b, table = c1.a, c1.b, case.c1
    c1sq = intersect(c1, c1)
    c1_ok, c2_ok, bound_ok = a == table.a and b == table.b, c2 == case.expected_c2, 0 <= c2 <= c1sq
    multiplicities_ok = all([m.const + m.coef * r >= 0 for _, m in case.sub_terms + case.mid_terms])
    checks = (
        # the text of f"display c1 {c1}, table c1 {table}", without two str() calls
        CheckResult("c1", c1_ok, f"display c1 ({a},{b}), table c1 ({table.a},{table.b})"),
        CheckResult("c2", c2_ok, f"computed c2 {c2}, expected {case.expected_c2}"),
        CheckResult("c2_bound", bound_ok, f"c2 {c2} against nef bound 0..{c1sq}"),
        CheckResult("multiplicities", multiplicities_ok, "every display multiplicity evaluates >= 0"),
    )
    return c1, c2, c2 < c1sq, _chi(0, c1, c2), checks, c1_ok and c2_ok and bound_ok and multiplicities_ok


@frozen
class Certificate:
    """A case's display class as base + r * slope, and what follows from it.

    The class is linear in the multiplicities and each of them is affine in
    r, so at rank r it is exactly base + r * slope.  ``row(r)`` evaluates
    every check of a case from it in plain ints, ``proved_from(lo)``
    decides whether all of them pass at every r >= lo, and ``rows(lo, hi)``
    counts the ranks of a sweep that pass, with their rows and, for a
    proved sweep, chi at rank 0.

    A display is flat when its slope is [O] and no multiplicity falls with
    r.  Then c1 and c2 do not move with r, and neither does the steady part
    of a row at r >= min_rank (c1, c2, weak_fano, k = chi at rank 0 and the
    c1, c2, c2_bound and multiplicities checks): the certificate keeps it,
    from min_rank, unless the class there has no Chern data.  Any other
    display's row makes its steady part at r.  Every row then adds the rank
    check, chi = k + rank (Riemann-Roch has slope 1 in the rank) and the
    reconstruction check, and its verdict is the steady part's verdict and
    theirs, decided in plain ints.  It keeps nothing that depends on
    anything but its fields.
    """

    case: CaseSpec
    base: KClass
    slope: KClass

    @functools.cached_property
    def _fixed(self) -> _Steady | None:
        """The steady part of every row of a flat display, made at min_rank;
        None for any other display, or one with no Chern data there."""
        base, lo, terms = self.base, self.case.min_rank, self.case.sub_terms + self.case.mid_terms
        if self.slope != _SLOPE_O or any([m.coef < 0 for _, m in terms]):
            return None
        try:
            c2 = _chern_c2(base.rank + lo, base.c1, base.ch2x2)
        except NefQ2Error:
            return None
        return _steady(self.case, lo, base.c1, c2)

    def row(self, r: int) -> VerificationReport:
        """The report of every check at rank r, each a ``CheckResult``, the
        reconstruction check included.  A rank that is not an int raises
        TypeError, one below min_rank ValueError, and a class with no Chern
        data the error of ``ktheory.to_chern``.

        The reconstruction check goes through ``reconstruct`` at every call,
        so a replaced function is seen.  The verdict is decided in plain
        ints: the steady part's verdict, kept with it on a flat display,
        and the rank, chi and reconstruction verdicts of this rank."""
        case = self.case
        if type(r) is not int:
            raise TypeError(f"rank must be an integer, got {r!r}")
        if r < case.min_rank:
            raise ValueError(f"{case.id} needs rank >= {case.min_rank}, got {r}")
        base, slope, fixed = self.base, self.slope, self._fixed
        rank = base.rank + r * slope.rank
        if fixed is None:
            c1 = base.c1 + r * slope.c1 if slope.c1.a or slope.c1.b else base.c1
            fixed = _steady(case, r, c1, _chern_c2(rank, c1, base.ch2x2 + r * slope.ch2x2))
        c1, c2, weak_fano, k, (c1_check, c2_check, bound, multiplicities), steady_ok = fixed
        chi = k + rank
        rank_ok, chi_ok = rank == r, chi >= 0
        checks = (
            CheckResult("rank", rank_ok, f"display rank {rank}, requested {r}"),
            c1_check,
            c2_check,
            bound,
            CheckResult("chi_nonnegative", chi_ok, f"chi = {chi} must be >= 0 for a nef family"),
            multiplicities,
        )
        passed = steady_ok and rank_ok and chi_ok
        if case.bondal_reconstructible:
            reconstruction = _reconstruction_check(c1, c2)
            checks += (reconstruction,)
            passed = passed and reconstruction.passed
        return VerificationReport(case, r, rank, c1, c2, weak_fano, checks, passed)

    def proved_from(self, lo: int) -> bool:
        """Whether every check of ``row(r)`` passes at every r >= lo, for
        lo >= min_rank: exactly when the display is flat and ``row(lo)``
        passes.  A row(lo) that raises NefQ2Error is not proved.

        With the slope [O] = (1, 0, 0) the rank is base.rank + r, so it is r
        at every rank once it is lo at lo, and c1 and twice c2 do not move:
        the c1, c2 and nef bound checks, the parity of twice c2 and the
        reconstruction verdict are those at lo, and chi = const - c2 + rank
        grows with r.  A multiplicity c + k*r >= 0 at lo stays so when
        k >= 0.  Conversely, the rank, c1 and c2 checks pass at every rank
        only if the slope is [O], and a falling multiplicity turns negative.
        A flat row that passes at lo has rank lo, so base.rank is 0 and the
        row at min_rank does not raise: the certificate keeps its checks.
        """
        try:
            passed = self.row(lo).passed
        except NefQ2Error:
            return False
        return passed and self._fixed is not None

    def rows(self, lo: int, hi: int) -> tuple[int, Iterable[VerificationReport], int | None]:
        """How many ranks of lo..hi pass every check, ``row(r)`` for each,
        and k = chi at rank 0 when ``proved_from(lo)``, else None.  A bound
        that is not an int raises TypeError, and an empty range
        HypothesisError.  Unless proved, the rows are a list made here, so a
        rank that raises does so at this call.  Proved, every rank passes
        and the rows are ``map(self.row, lo..hi)``, made as they are read."""
        for name, bound in (("lo", lo), ("hi", hi)):
            if type(bound) is not int:
                raise TypeError(f"{name} must be an integer, got {bound!r}")
        ranks = range(lo, hi + 1)
        if not ranks:
            raise HypothesisError(f"empty sweep: no rank in {lo}..{hi}")
        fixed = self._fixed
        if fixed is not None and self.proved_from(lo):
            return len(ranks), map(self.row, ranks), fixed[3]
        rows = [self.row(r) for r in ranks]
        return sum(row.passed for row in rows), rows, None


def certify(case: CaseSpec) -> Certificate:
    """The case's certificate, built on first use and kept on the case; a non-CaseSpec raises TypeError."""
    if type(case) is not CaseSpec:
        raise TypeError(f"case must be a CaseSpec, got {case!r}")
    return case._certificate


def case_kclass(case: CaseSpec, r: int) -> KClass:
    """Alternating K-sum of the display at rank r (no honesty checks), exact
    at every r, including the virtual classes below min_rank.  A rank that
    is not an int raises TypeError."""
    if type(r) is not int:
        raise TypeError(f"rank must be an integer, got {r!r}")
    cert = certify(case)
    return cert.base + r * cert.slope


@functools.cache
def _reconstruction_proof(c2: int, rebuild: Callable[[BundleNumerics], KClass]) -> CheckResult:
    """The reconstruction check at determinant (2, 2) and c2 in 6..8, for
    every rank r >= 1 at once.

    At fixed c2 both sides of the identity are affine in r: the module
    profile is hom = (r + 8 - c2, 0, 0, 0), ext1 = (0, c2 - 6, c2 - 6,
    c2 - 4), and the direct class is (r, (2, 2), 8 - 2*c2).  Their
    difference is affine in r, so it vanishes for every r once it vanishes
    at r = 1 and r = 2.  The verdict is cached per c2 and per rebuild
    function, so a replaced ``reconstruct`` is proved afresh.
    """
    try:
        for r in (1, 2):
            rebuild(BundleNumerics(r, _C1_22, c2))
    except ReconstructionError as exc:  # an internal identity failed: a bug, shown as a failing check
        return CheckResult("reconstruction", False, str(exc))
    return CheckResult("reconstruction", True, "module profile rebuilds the K-class")


def verify_case(case: CaseSpec, r: int) -> VerificationReport:
    """Recompute every numeric claim of one case at one rank: ``certify(case).row(r)``."""
    return certify(case).row(r)


def sweep(
    theorem: str, rank_min: int | None, rank_max: int, *, c1: BiDegree | None = None, b: int | None = None
) -> list[tuple[CaseSpec, int]]:
    """(case, lo) for each case of ``list_cases(theorem)`` with a rank in
    lo..rank_max, where lo = max(rank_min, its min_rank).  A sweep with no
    such case raises HypothesisError."""
    if type(rank_max) is not int or not (rank_min is None or type(rank_min) is int):
        raise TypeError(f"rank bounds must be integers, got {rank_min!r} and {rank_max!r}")
    cases = list_cases(theorem, c1=c1, b=b)
    firsts = ((case, case.min_rank if rank_min is None else max(rank_min, case.min_rank)) for case in cases)
    swept = [(case, lo) for case, lo in firsts if lo <= rank_max]
    if not swept:
        lo = "min_rank" if rank_min is None else rank_min
        raise HypothesisError(f"empty sweep: no case has a rank in {lo}..{rank_max}")
    return swept


def verify_all(
    theorem: str,
    rank_min: int | None = None,
    rank_max: int = 10,
    *,
    c1: BiDegree | None = None,
    b: int | None = None,
) -> list[VerificationReport]:
    """verify_case over the cases of one table x ranks.  Each case is
    swept from max(rank_min, its min_rank) to rank_max; a sweep with no
    rank at all raises HypothesisError."""
    cases = sweep(theorem, rank_min, rank_max, c1=c1, b=b)
    return [verify_case(case, r) for case, lo in cases for r in range(lo, rank_max + 1)]
