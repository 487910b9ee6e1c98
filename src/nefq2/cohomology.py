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

from dataclasses import dataclass
from typing import NamedTuple

from .errors import HypothesisError
from .picard import BiDegree, intersect


@dataclass(frozen=True)
class CohomologyVector:
    """Dimensions (h0, h1, h2) of the three cohomology groups."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        for h in (self.h0, self.h1, self.h2):
            if type(h) is not int:
                raise TypeError("cohomology dimensions must be integers")
            if h < 0:
                raise ValueError("cohomology dimensions must be non-negative")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


@dataclass(frozen=True)
class BundleNumerics:
    """Chern data (rank, c1, c2) of an honest sheaf of positive rank.

    c2 may be any integer here; the nef bound 0 <= c2 <= c1^2 is a
    property of nef bundles and is checked by the catalog verifier, not
    by this container.
    """

    rank: int
    c1: BiDegree
    c2: int

    def __post_init__(self) -> None:
        if type(self.rank) is not int or type(self.c2) is not int:
            raise TypeError("rank and c2 must be integers")
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def __str__(self) -> str:
        return f"rank={self.rank} c1={self.c1} c2={self.c2}"


def line_cohomology_p1(d: int) -> tuple[int, int]:
    """(h0, h1) of O(d) on one line.

    >>> line_cohomology_p1(3)
    (4, 0)
    >>> line_cohomology_p1(-1)
    (0, 0)
    >>> line_cohomology_p1(-4)
    (0, 3)
    """
    h0 = d + 1 if d >= 0 else 0
    h1 = -d - 1 if d <= -2 else 0
    return (h0, h1)


def cohomology_q2(x: BiDegree) -> CohomologyVector:
    """Cohomology of the line bundle O(a, b) on the quadric, via Kuenneth.

    >>> cohomology_q2(BiDegree(1, 1))
    CohomologyVector(h0=4, h1=0, h2=0)
    >>> cohomology_q2(BiDegree(-1, -1))
    CohomologyVector(h0=0, h1=0, h2=0)
    >>> cohomology_q2(BiDegree(-3, 0))
    CohomologyVector(h0=0, h1=2, h2=0)
    """
    f0, f1 = line_cohomology_p1(x.a)
    g0, g1 = line_cohomology_p1(x.b)
    return CohomologyVector(f0 * g0, f0 * g1 + f1 * g0, f1 * g1)


def euler_char(e: BundleNumerics, p: int = 0, q: int = 0) -> int:
    """chi(E(p, q)) by Riemann-Roch; exact for any twist.

    >>> euler_char(BundleNumerics(3, BiDegree(2, 2), 6))
    5
    >>> euler_char(BundleNumerics(3, BiDegree(2, 2), 6), -1, -1)
    -2
    """
    c1a, c1b = e.c1.a, e.c1.b
    return (
        c1a * c1b
        - e.c2
        + (q + 1) * c1a
        + (p + 1) * c1b
        + e.rank * (p + 1) * (q + 1)
    )


def projective_bundle_degree(e: BundleNumerics) -> int:
    """Top self-intersection of the tautological class on the
    projectivization: c1^2 - c2.  For determinant (2, 2) this is 8 - c2."""
    return intersect(e.c1, e.c1) - e.c2


def is_weak_fano(e: BundleNumerics) -> bool:
    """Whether the projectivization of a nef bundle with these numerics is
    weak Fano: positive anticanonical top degree, i.e. c2 < c1^2."""
    return projective_bundle_degree(e) > 0


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

    which requires c2 >= 6.  The hypotheses themselves are asserted by
    the caller; this function only enforces their numeric consequences.

    >>> ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), 6))
    HomExtProfile(hom=(5, 0, 0, 0), ext1=(0, 0, 0, 2))
    >>> ext1_module_profile(BundleNumerics(2, BiDegree(2, 2), 8))
    HomExtProfile(hom=(2, 0, 0, 0), ext1=(0, 2, 2, 4))
    """
    if e.c1 != BiDegree(2, 2):
        raise HypothesisError(
            f"module profile is defined for determinant (2,2) only, got {e.c1}"
        )
    # Each entry is +-chi of a twist: h0 for the untwisted bundle, h1 for
    # the three negative twists, all other groups vanishing by hypothesis.
    n0 = euler_char(e, 0, 0)
    n1 = -euler_char(e, -1, 0)
    n2 = -euler_char(e, 0, -1)
    n3 = -euler_char(e, -1, -1)
    if n1 < 0 or n2 < 0:
        raise HypothesisError(
            "the Hom/Ext profile is defined only for c2 >= 6; "
            f"c2={e.c2} forces a section after a ruling twist"
        )
    if n0 < 0 or n3 < 0:
        raise HypothesisError(
            f"profile dimensions must be non-negative (rank={e.rank}, c2={e.c2} "
            "violates the nef bound)"
        )
    return HomExtProfile((n0, 0, 0, 0), (0, n1, n2, n3))
