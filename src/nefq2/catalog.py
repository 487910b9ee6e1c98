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
hypotheses of the module-profile reconstruction).  A case's weak_fano
reads c2 from the table's expected_c2, a verify row's from the c2
computed from the display at its rank.

The checks of a case are made by the certificate engine, ``nefq2.verify``,
loaded at first use; this module forwards the engine's public names.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Any, Iterable

from ._value import frozen, replace
from .cohomology import _weak_fano
from .errors import HypothesisError
from .ktheory import KClass, TorsionDescriptor, TorsionKind, _line_sum, four_term_quotient, torsion_class
from .picard import BiDegree, is_effective

if TYPE_CHECKING:
    from .verify import Certificate

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
        from .verify import Certificate

        base = _display_class(self, 0)
        return Certificate(self, base, _display_class(self, 1) - base)

    def flags(self) -> dict[str, Any]:
        return {
            "nef": "asserted",
            "globally_generated": self.globally_generated,
            "weak_fano": _weak_fano(self.c1, self.expected_c2),
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


#: The certificate engine's public names, which ``verify`` defines.
_ENGINE = ("certify", "Certificate", "CheckResult", "VerificationReport", "case_kclass", "verify_case", "verify_all")


def __getattr__(name: str) -> Any:
    """An engine name, read from ``verify``, which only then is loaded."""
    if name in _ENGINE:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
