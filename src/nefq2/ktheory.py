"""Topological K-theory bookkeeping for sheaves on the quadric.

A class is stored as (rank, c1, ch2x2) where ch2x2 is TWICE the degree of
the second Chern character.  Doubling keeps every field an integer: for a
line bundle O(a, b) the second Chern character is ab, so ch2x2 = 2ab, and
for any honest sheaf ch2x2 = c1^2 - 2*c2 with c1^2 = 2*c1a*c1b even.
Classes form a group under componentwise addition; negative ranks are
legal intermediate values (virtual classes) and only the conversion back
to Chern data insists on an honest positive-rank sheaf.

Exact sequence conventions, for 0 -> S -> M -> E -> C -> 0:

    [E] = [M] - [S] + [C]

and Whitney's formula at Chern-class level for the three-term case.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable

from ._value import frozen
from .cohomology import BundleNumerics
from .errors import HypothesisError, MalformedClassError, ReconstructionError, VirtualClassError
from .picard import ZERO, BiDegree, intersect, is_effective

if TYPE_CHECKING:
    from .catalog import RankExpr


@frozen
class KClass:
    """A (possibly virtual) K-theory class (rank, c1, ch2x2).

    Supports +, -, unary - and integer scaling:

    >>> line_class(BiDegree(1, 0)) + line_class(BiDegree(0, 1))
    KClass(rank=2, c1=BiDegree(a=1, b=1), ch2x2=0)
    >>> 2 * line_class(BiDegree(-1, -1))
    KClass(rank=2, c1=BiDegree(a=-2, b=-2), ch2x2=4)
    """

    rank: int
    c1: BiDegree
    ch2x2: int

    def __add__(self, other: KClass) -> KClass:
        if type(other) is not KClass:
            return NotImplemented
        return KClass(self.rank + other.rank, self.c1 + other.c1, self.ch2x2 + other.ch2x2)

    def __sub__(self, other: KClass) -> KClass:
        if type(other) is not KClass:
            return NotImplemented
        return KClass(self.rank - other.rank, self.c1 - other.c1, self.ch2x2 - other.ch2x2)

    def __neg__(self) -> KClass:
        return KClass(-self.rank, -self.c1, -self.ch2x2)

    def __mul__(self, n: int) -> KClass:
        if type(n) is not int:
            return NotImplemented
        return KClass(n * self.rank, n * self.c1, n * self.ch2x2)

    __rmul__ = __mul__

    @staticmethod
    def zero() -> KClass:
        return KClass(0, ZERO, 0)

    def __str__(self) -> str:
        return f"(rank {self.rank}, c1 {self.c1}, 2ch2 {self.ch2x2})"


#: Class of a point sheaf (skyscraper of length one): pure second Chern
#: character, one point = ch2x2 of 2.
POINT_CLASS = KClass(0, ZERO, 2)


def line_class(x: BiDegree) -> KClass:
    """K-class of the line bundle O(x).

    >>> line_class(BiDegree(-1, -1))
    KClass(rank=1, c1=BiDegree(a=-1, b=-1), ch2x2=2)
    """
    if type(x) is not BiDegree:
        raise TypeError(f"degree must be a BiDegree, got {x!r}")
    return KClass(1, x, intersect(x, x))


def _line_sum(terms: Iterable[tuple[BiDegree, int]]) -> KClass:
    """K-class of the sum of mult * O(deg) over (deg, mult) terms, the
    multiplicities of either sign, added up in plain ints."""
    rank = a = b = ch2x2 = 0
    for deg, mult in terms:
        if type(deg) is not BiDegree or type(mult) is not int:
            raise TypeError(f"a term is a BiDegree and an int multiplicity, got {deg!r} and {mult!r}")
        rank += mult
        a += mult * deg.a
        b += mult * deg.b
        ch2x2 += mult * deg.a * deg.b
    return KClass(rank, BiDegree(a, b), 2 * ch2x2)


def sum_of_lines(terms: Iterable[tuple[BiDegree, int]]) -> KClass:
    """K-class of a direct sum of line bundles with multiplicities."""
    terms = tuple(terms)
    total = _line_sum(terms)
    for deg, mult in terms:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for O{deg}")
    return total


def _chern_c2(rank: int, c1: BiDegree, ch2x2: int) -> int:
    """c2 of an honest class (rank, c1, ch2x2): the rank is positive and
    2*c2 = c1^2 - ch2x2 is even (it always is for integral combinations of
    sheaf classes).  The class is built only to name it in an error."""
    twice_c2 = 2 * c1.a * c1.b - ch2x2
    if rank < 1:
        raise VirtualClassError(f"cannot take Chern data of a virtual class {KClass(rank, c1, ch2x2)}")
    if twice_c2 % 2 != 0:
        raise MalformedClassError(f"ch2 parity violated in {KClass(rank, c1, ch2x2)}: c1^2 - ch2x2 is odd")
    return twice_c2 // 2


def to_chern(k: KClass) -> BundleNumerics:
    """Convert an honest class to Chern data (rank, c1, c2).

    >>> to_chern(KClass(2, BiDegree(2, 2), 4))
    BundleNumerics(rank=2, c1=BiDegree(a=2, b=2), c2=2)
    """
    if type(k) is not KClass:
        raise TypeError(f"class must be a KClass, got {k!r}")
    return BundleNumerics(k.rank, k.c1, _chern_c2(k.rank, k.c1, k.ch2x2))


def from_chern(e: BundleNumerics) -> KClass:
    """Inverse of :func:`to_chern`."""
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    c1 = e.c1
    return KClass(e.rank, c1, 2 * (c1.a * c1.b - e.c2))


def twist_chern(e: BundleNumerics, line: BiDegree) -> BundleNumerics:
    """Chern data of E tensored with the line bundle O(line).

    c1 gains rank copies of the twist; c2 follows the standard rank-r
    twisting formula

        c2(E(L)) = c2 + (r-1)*(c1 . L) + C(r, 2)*(L . L),

    where C(r, 2)*(L . L) = r*(r-1)*la*lb.  A twist that is not a BiDegree
    raises TypeError before anything is built.

    >>> twist_chern(BundleNumerics(2, BiDegree(1, 1), 1), BiDegree(1, 0))
    BundleNumerics(rank=2, c1=BiDegree(a=3, b=1), c2=2)
    """
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    if type(line) is not BiDegree:
        raise TypeError(f"twist must be a BiDegree, got {line!r}")
    r, c1, la, lb = e.rank, e.c1, line.a, line.b
    c2 = e.c2 + (r - 1) * (c1.a * lb + c1.b * la + r * la * lb)
    return BundleNumerics(r, c1 + BiDegree(r * la, r * lb), c2)


def ses_quotient_chern(sub: BundleNumerics, mid: BundleNumerics) -> BundleNumerics:
    """Chern data of the locally free quotient in 0 -> sub -> mid -> Q -> 0.

    Whitney: c(mid) = c(sub) * c(Q), solved exactly for Q.

    >>> ses_quotient_chern(BundleNumerics(1, BiDegree(-1, -2), 0),
    ...                    BundleNumerics(4, BiDegree(1, 0), 0))
    BundleNumerics(rank=3, c1=BiDegree(a=2, b=2), c2=6)
    """
    if type(sub) is not BundleNumerics or type(mid) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {sub!r} and {mid!r}")
    rank = mid.rank - sub.rank
    if rank < 1:
        raise VirtualClassError(
            f"quotient rank {rank} is not positive (sub rank {sub.rank}, mid rank {mid.rank})"
        )
    s, m = sub.c1, mid.c1
    a, b = m.a - s.a, m.b - s.b
    return BundleNumerics(rank, BiDegree(a, b), mid.c2 - sub.c2 - s.a * b - s.b * a)


class TorsionKind(enum.Enum):
    """Shapes of torsion (or torsion-augmented) cokernels in the catalog."""

    POINT_SHEAF = "point"
    STRUCTURE_SHEAF = "structure"
    CURVE_TORSION = "curve"


@frozen
class TorsionDescriptor:
    """Description of a cokernel sheaf appearing in a four-term display.

    POINT_SHEAF is a length-one skyscraper; STRUCTURE_SHEAF is the full
    structure sheaf (rank one!); CURVE_TORSION is a rank-one sheaf on a
    curve of the given bidegree, twisted so that its degree gains
    ``twist_degree`` points.  Only curve torsion takes a support, which
    must be effective, or a twist.  Only twist degree 0 occurs in the shipped catalog; other values
    follow the one-twist-unit-per-point convention but are otherwise
    unexercised.
    """

    kind: TorsionKind
    support: BiDegree | None = None
    twist_degree: int = 0

    def __post_init__(self) -> None:
        if self.kind is TorsionKind.CURVE_TORSION:
            if self.support is None:
                raise HypothesisError("curve torsion needs a support bidegree")
            if not is_effective(self.support):
                raise HypothesisError(f"curve support {self.support} is not effective")
        elif self.support is not None:
            raise HypothesisError(f"{self.kind.value} cokernel takes no support class")
        elif self.twist_degree:
            raise HypothesisError(f"{self.kind.value} cokernel takes no twist, got {self.twist_degree}")

    def label(self) -> str:
        if self.kind is TorsionKind.POINT_SHEAF:
            return "k(p)"
        if self.kind is TorsionKind.STRUCTURE_SHEAF:
            return "O"
        return f"O_C({self.twist_degree}) on a {self.support} curve"


def line_label(deg: BiDegree, mult: int | RankExpr = 1) -> str:
    """Text of the direct sum O(deg)^mult, for an int or ``RankExpr``
    multiplicity; one of the form r+k or r-k is put in parentheses.

    >>> from nefq2.catalog import RankExpr
    >>> line_label(ZERO, 6), line_label(BiDegree(-1, -1)), line_label(BiDegree(2, 0), RankExpr(-3, 1))
    ('O^6', 'O(-1,-1)', 'O(2,0)^(r-3)')
    """
    if type(deg) is not BiDegree:
        raise TypeError(f"degree must be a BiDegree, got {deg!r}")
    if type(mult) is not int:
        from .catalog import RankExpr  # catalog imports this module

        if type(mult) is not RankExpr:
            raise TypeError(f"multiplicity must be an int or a RankExpr, got {mult!r}")
    base = "O" if deg == ZERO else f"O{deg}"
    text = str(mult)
    if text == "1":
        return base
    return f"{base}^({text})" if "+" in text or "-" in text else f"{base}^{text}"


def torsion_class(t: TorsionDescriptor) -> KClass:
    """K-class of a cokernel descriptor.

    The class of a rank-one sheaf on a curve C of bidegree D is
    [O] - [O(-D)]; a twist of degree d adds d point classes.

    >>> torsion_class(TorsionDescriptor(TorsionKind.POINT_SHEAF))
    KClass(rank=0, c1=BiDegree(a=0, b=0), ch2x2=2)
    >>> torsion_class(TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(2, 2)))
    KClass(rank=0, c1=BiDegree(a=2, b=2), ch2x2=-8)
    """
    if type(t) is not TorsionDescriptor:
        raise TypeError(f"cokernel must be a TorsionDescriptor, got {t!r}")
    if t.kind is TorsionKind.POINT_SHEAF:
        return POINT_CLASS
    if t.kind is TorsionKind.STRUCTURE_SHEAF:
        return line_class(ZERO)
    assert t.support is not None
    base = line_class(ZERO) - line_class(-t.support)
    return base + t.twist_degree * POINT_CLASS


def four_term_quotient(sub: KClass, mid: KClass, coker: KClass) -> KClass:
    """[E] for an exact sequence 0 -> sub -> mid -> E -> coker -> 0."""
    if type(sub) is not KClass or type(mid) is not KClass or type(coker) is not KClass:
        raise TypeError(f"classes must be KClasses, got {sub!r}, {mid!r} and {coker!r}")
    return mid - sub + coker


class IdealResolution(enum.Enum):
    """Koszul-type resolutions of ideal sheaves of points used in the
    classification arguments."""

    #: No points: the identity resolution of the structure sheaf.
    EMPTY = "empty"
    #: Two general points, cut by two curves of bidegree (1,1).
    TWO_POINTS_GENERAL = "two_points_general"
    #: Three points, cut by curves of bidegrees (1,1) and (2,1).
    CI_11_21 = "ci_11_21"


_Resolution = tuple[list[tuple[BiDegree, int]], list[tuple[BiDegree, int]], int]
_IDEAL_RESOLUTIONS: dict[IdealResolution, _Resolution] = {
    # (kernel terms, middle terms, number of points cut out)
    IdealResolution.EMPTY: ([], [(ZERO, 1)], 0),
    IdealResolution.TWO_POINTS_GENERAL: (
        [(BiDegree(-2, -2), 1)],
        [(BiDegree(-1, -1), 2)],
        2,
    ),
    IdealResolution.CI_11_21: (
        [(BiDegree(-3, -2), 1)],
        [(BiDegree(-2, -1), 1), (BiDegree(-1, -1), 1)],
        3,
    ),
}


def ideal_sheaf_class(kind: IdealResolution) -> KClass:
    """K-class of the ideal sheaf resolved by the chosen Koszul display.

    The result must equal [O] minus one point class per point; that
    identity is recomputed here as an internal check.

    >>> ideal_sheaf_class(IdealResolution.TWO_POINTS_GENERAL)
    KClass(rank=1, c1=BiDegree(a=0, b=0), ch2x2=-4)
    >>> ideal_sheaf_class(IdealResolution.CI_11_21)
    KClass(rank=1, c1=BiDegree(a=0, b=0), ch2x2=-6)
    """
    if type(kind) is not IdealResolution:
        raise TypeError(f"kind must be an IdealResolution, got {kind!r}")
    kernel, middle, length = _IDEAL_RESOLUTIONS[kind]
    built = sum_of_lines(middle) - sum_of_lines(kernel)
    expected = line_class(ZERO) - length * POINT_CLASS
    if built != expected:
        raise ReconstructionError(
            f"ideal sheaf resolution {kind.value} gave {built}, expected {expected}"
        )
    return built
