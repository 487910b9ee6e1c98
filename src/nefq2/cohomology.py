"""Sheaf cohomology of line bundles on the quadric, and Riemann-Roch.

Line bundles on one line have the classical cohomology

    h0(O(d)) = d + 1  for d >= 0,        h1(O(d)) = -d - 1  for d <= -2,

and zero otherwise.  On the quadric the Kuenneth formula assembles these
into the three cohomology dimensions of O(a, b).  Serre duality reads
h^q(a, b) = h^{2-q}(-2-a, -2-b) since the canonical class is (-2, -2).

For a bundle of rank r with Chern data (c1, c2), Riemann-Roch on the
quadric evaluates the Euler characteristic of every twist exactly:

    chi(E(p, q)) = c1a*c1b - c2 + (q+1)*c1a + (p+1)*c1b + r*(p+1)*(q+1)

where c1 = (c1a, c1b).  Everything below is exact integer arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from ._value import frozen
from .errors import HypothesisError
from .picard import BiDegree, intersect


@frozen
class CohomologyVector:
    """Dimensions (h0, h1, h2) of the three cohomology groups."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if self.h0 < 0 or self.h1 < 0 or self.h2 < 0:
            raise ValueError("cohomology dimensions must be non-negative")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


@frozen
class BundleNumerics:
    """Chern data (rank, c1, c2) of an honest sheaf of positive rank.

    c2 may be any integer here; the nef bound 0 <= c2 <= c1^2 is a
    property of nef bundles and is checked by the certificate engine,
    ``nefq2.verify``, not by this container.
    """

    rank: int
    c1: BiDegree
    c2: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def __str__(self) -> str:
        return f"rank={self.rank} c1={self.c1} c2={self.c2}"


def cohomology_q2(x: BiDegree) -> CohomologyVector:
    """Cohomology of the line bundle O(a, b) on the quadric, via Kuenneth.

    >>> cohomology_q2(BiDegree(1, 1))
    CohomologyVector(h0=4, h1=0, h2=0)
    >>> cohomology_q2(BiDegree(-1, -1))
    CohomologyVector(h0=0, h1=0, h2=0)
    >>> cohomology_q2(BiDegree(-3, 0))
    CohomologyVector(h0=0, h1=2, h2=0)
    """
    if type(x) is not BiDegree:
        raise TypeError(f"degree must be a BiDegree, got {x!r}")
    # on a line h0(d) = d + 1 if positive, else h1(d) = -d - 1: one product is nonzero
    a, b = x.a + 1, x.b + 1
    if a > 0 and b > 0:
        return CohomologyVector(a * b, 0, 0)
    if a > 0 or b > 0:
        return CohomologyVector(0, -a * b, 0)
    return CohomologyVector(0, 0, a * b)


def euler_char(e: BundleNumerics, p: int = 0, q: int = 0) -> int:
    """chi(E(p, q)) by Riemann-Roch; exact for any twist.

    >>> euler_char(BundleNumerics(3, BiDegree(2, 2), 6))
    5
    >>> euler_char(BundleNumerics(3, BiDegree(2, 2), 6), -1, -1)
    -2
    """
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    if type(p) is not int or type(q) is not int:
        raise TypeError(f"twist degrees must be integers, got {p!r} and {q!r}")
    return _chi(e.rank, e.c1, e.c2, p, q)


def _chi(rank: int, c1: BiDegree, c2: int, p: int = 0, q: int = 0) -> int:
    """chi(E(p, q)) by Riemann-Roch, for Chern data given as plain values."""
    return c1.a * c1.b - c2 + (q + 1) * c1.a + (p + 1) * c1.b + rank * (p + 1) * (q + 1)


def projective_bundle_degree(e: BundleNumerics) -> int:
    """Top self-intersection of the tautological class on the
    projectivization: c1^2 - c2.  For determinant (2, 2) this is 8 - c2."""
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    return intersect(e.c1, e.c1) - e.c2


def is_weak_fano(e: BundleNumerics) -> bool:
    """Whether the projectivization of a nef bundle with these numerics is
    weak Fano: positive anticanonical top degree, i.e. c2 < c1^2."""
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    return _weak_fano(e.c1, e.c2)


def _weak_fano(c1: BiDegree, c2: int) -> bool:
    """c2 < c1^2, the weak Fano condition, for Chern data given as plain values."""
    return c2 < intersect(c1, c1)


class HomExtProfile(NamedTuple):
    """Graded dimensions of the Hom and first Ext modules over the tilting
    algebra, in the order of the four collection members."""

    hom: tuple[int, int, int, int]
    ext1: tuple[int, int, int, int]


def ext1_module_profile(e: BundleNumerics) -> HomExtProfile:
    """Module profile of a nef bundle with determinant (2, 2), no
    sub-line-bundle of either ruling degree, and vanishing h1.

    Under those hypotheses every twisted cohomology that feeds the module
    structure is forced by its Euler characteristic, giving

        hom  = (r + 8 - c2, 0, 0, 0)
        ext1 = (0, c2 - 6, c2 - 6, c2 - 4)

    which requires c2 >= 6; under the nef bound c2 <= c1^2 = 8 every entry
    is then non-negative.  The hypotheses themselves are asserted by the
    caller; this function only enforces 6 <= c2 <= 8.

    >>> ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), 6))
    HomExtProfile(hom=(5, 0, 0, 0), ext1=(0, 0, 0, 2))
    >>> ext1_module_profile(BundleNumerics(2, BiDegree(2, 2), 8))
    HomExtProfile(hom=(2, 0, 0, 0), ext1=(0, 2, 2, 4))
    """
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    if (e.c1.a, e.c1.b) != (2, 2):
        raise HypothesisError(
            f"module profile is defined for determinant (2,2) only, got {e.c1}"
        )
    if not 6 <= e.c2 <= 8:
        raise HypothesisError(
            "the Hom/Ext profile is defined only for 6 <= c2 <= 8: a smaller c2 forces a section "
            f"after a ruling twist, and a larger one violates the nef bound c2 <= 8; got c2={e.c2}"
        )
    # Each entry is +-chi of a twist: h0 for the untwisted bundle, h1 for
    # the three negative twists, all other groups vanishing by hypothesis.
    # Riemann-Roch is evaluated once, at (0, 0); the twists differ from it
    # exactly: chi(-1,0) = chi - b - r, chi(0,-1) = chi - a - r and
    # chi(-1,-1) = chi - a - b - r.
    r, a, b = e.rank, e.c1.a, e.c1.b
    n0 = _chi(r, e.c1, e.c2)
    return HomExtProfile((n0, 0, 0, 0), (0, b + r - n0, a + r - n0, a + b + r - n0))
