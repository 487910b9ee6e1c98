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
import math
from typing import Iterable

from ._value import frozen
from .cohomology import BundleNumerics
from .errors import HypothesisError, MalformedClassError, ReconstructionError, VirtualClassError
from .picard import ZERO, BiDegree, intersect, is_effective


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
    return KClass(1, x, 2 * x.a * x.b)


def sum_of_lines(terms: Iterable[tuple[BiDegree, int]]) -> KClass:
    """K-class of a direct sum of line bundles with multiplicities."""
    total = KClass.zero()
    for deg, mult in terms:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for O{deg}")
        total = total + mult * line_class(deg)
    return total


def to_chern(k: KClass) -> BundleNumerics:
    """Convert an honest class to Chern data (rank, c1, c2).

    2*c2 = c1^2 - ch2x2 must be even (it always is for integral
    combinations of sheaf classes) and the rank must be positive.

    >>> to_chern(KClass(2, BiDegree(2, 2), 4))
    BundleNumerics(rank=2, c1=BiDegree(a=2, b=2), c2=2)
    """
    if k.rank < 1:
        raise VirtualClassError(f"cannot take Chern data of a virtual class {k}")
    twice_c2 = intersect(k.c1, k.c1) - k.ch2x2
    if twice_c2 % 2 != 0:
        raise MalformedClassError(f"ch2 parity violated in {k}: c1^2 - ch2x2 is odd")
    return BundleNumerics(k.rank, k.c1, twice_c2 // 2)


def from_chern(e: BundleNumerics) -> KClass:
    """Inverse of :func:`to_chern`."""
    return KClass(e.rank, e.c1, intersect(e.c1, e.c1) - 2 * e.c2)


def twist_chern(e: BundleNumerics, line: BiDegree) -> BundleNumerics:
    """Chern data of E tensored with the line bundle O(line).

    c1 gains rank copies of the twist; c2 follows the standard rank-r
    twisting formula

        c2(E(L)) = c2 + (r-1)*(c1 . L) + C(r, 2)*(L . L).

    >>> twist_chern(BundleNumerics(2, BiDegree(1, 1), 1), BiDegree(1, 0))
    BundleNumerics(rank=2, c1=BiDegree(a=3, b=1), c2=2)
    """
    r = e.rank
    c1 = e.c1 + r * line
    c2 = e.c2 + (r - 1) * intersect(e.c1, line) + math.comb(r, 2) * intersect(line, line)
    return BundleNumerics(r, c1, c2)


def ses_quotient_chern(sub: BundleNumerics, mid: BundleNumerics) -> BundleNumerics:
    """Chern data of the locally free quotient in 0 -> sub -> mid -> Q -> 0.

    Whitney: c(mid) = c(sub) * c(Q), solved exactly for Q.

    >>> ses_quotient_chern(BundleNumerics(1, BiDegree(-1, -2), 0),
    ...                    BundleNumerics(4, BiDegree(1, 0), 0))
    BundleNumerics(rank=3, c1=BiDegree(a=2, b=2), c2=6)
    """
    rank = mid.rank - sub.rank
    if rank < 1:
        raise VirtualClassError(
            f"quotient rank {rank} is not positive (sub rank {sub.rank}, mid rank {mid.rank})"
        )
    c1 = mid.c1 - sub.c1
    c2 = mid.c2 - sub.c2 - intersect(sub.c1, c1)
    return BundleNumerics(rank, c1, c2)


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
    ``twist_degree`` points.  Only curve torsion takes a support or a
    twist.  Only twist degree 0 occurs in the shipped catalog; other values
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


def line_label(deg: BiDegree, mult: object = 1) -> str:
    """Text of the direct sum O(deg)^mult, for an int or ``RankExpr``
    multiplicity; one of the form r+k or r-k is put in parentheses.

    >>> from nefq2.catalog import RankExpr
    >>> line_label(ZERO, 6), line_label(BiDegree(-1, -1)), line_label(BiDegree(2, 0), RankExpr(-3, 1))
    ('O^6', 'O(-1,-1)', 'O(2,0)^(r-3)')
    """
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
    if t.kind is TorsionKind.POINT_SHEAF:
        return POINT_CLASS
    if t.kind is TorsionKind.STRUCTURE_SHEAF:
        return line_class(ZERO)
    assert t.support is not None
    if not is_effective(t.support):
        raise HypothesisError(f"curve support {t.support} is not effective")
    base = line_class(ZERO) - line_class(-t.support)
    return base + t.twist_degree * POINT_CLASS


def four_term_quotient(sub: KClass, mid: KClass, coker: KClass) -> KClass:
    """[E] for an exact sequence 0 -> sub -> mid -> E -> coker -> 0."""
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
