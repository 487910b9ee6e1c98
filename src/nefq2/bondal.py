"""Derived-equivalence bookkeeping: from module data back to sheaf classes.

The derived equivalence induced by the tilting bundle sends each vertex
simple to the dual of its collection member, shifted by that member's
degree: the simple of O(a, b) goes to O(-a, -b)[a + b], so

    S0 -> O        [0]
    S1 -> O(-1,0)  [1]
    S2 -> O(0,-1)  [1]
    S3 -> O(-1,-1) [2]

So a module with composition series (d0, d1, d2, d3) contributes the
K-class  d0*[O] - d1*[O(-1,0)] - d2*[O(0,-1)] + d3*[O(-1,-1)]  (signs are
parities of the shifts, and Ext^1 sits one shift further).  ``reconstruct``
applies this sum to the Hom/Ext profile of a suitable nef bundle, which
must reproduce the bundle's own K-class exactly; that identity is checked
on every call, as one signed line sum against ``from_chern``, and a
failure is an implementation bug.

The convergence data of the equivalence's spectral sequence is exposed as
a small second-page table with possible entries only at (p, q) in
{(-2,1), (-1,1), (0,0)}.  For c2 in {6, 7, 8} the nonzero entries are
identified sheaves; c2 = 8 has two variants and this module asserts no
preference between them.  A page is its (c2, rank, variant), and its
entries are derived from them when read.  What does not move with the rank
is built once per (c2, variant), at the first read of the page table: the
q = 1 entries, the twisted terms of their four-term presentation and
D = [E2(-1,1)] - [E2(-2,1)].  Each ``e2_page`` call recomputes and
compares both identities.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping

from ._value import frozen
from .cohomology import BundleNumerics, _C1_22
from .errors import HypothesisError, ReconstructionError
from .ktheory import (
    KClass, TorsionDescriptor, TorsionKind, _line_sum, from_chern, line_class, line_label, torsion_class
)
from .picard import ZERO, BiDegree
from .quiver import COLLECTION, hom_ext_series


#: Each vertex simple's line degree, the dual of its collection member, with
#: the sign of its shift's parity.
_SIGNED_DEGREES = tuple((-g, -1 if (g.a + g.b) % 2 else 1) for g in COLLECTION)


def reconstruct(e: BundleNumerics) -> KClass:
    """Recover the K-class of a nef bundle with determinant (2, 2) and
    6 <= c2 <= 8 from its Hom/Ext module profile alone, and check it
    against the direct conversion.  Returns the reconstructed class.
    The two classes are compared as int 4-tuples (rank, c1a, c1b, ch2x2).

    >>> reconstruct(BundleNumerics(4, BiDegree(2, 2), 6))
    KClass(rank=4, c1=BiDegree(a=2, b=2), ch2x2=-4)
    """
    if type(e) is not BundleNumerics:
        raise TypeError(f"Chern data must be a BundleNumerics, got {e!r}")
    if (e.c1.a, e.c1.b) != (2, 2):
        raise HypothesisError(f"reconstruction is defined for determinant (2,2) only, got {e.c1}")
    hom, ext1 = hom_ext_series(e.rank, e.c2)
    # Ext^1 sits one shift further, so its multiplicities take the other sign
    rebuilt = _line_sum([(deg, sign * (h - x)) for (deg, sign), h, x in zip(_SIGNED_DEGREES, hom, ext1)])
    direct = from_chern(e)
    got, want = rebuilt.c1, direct.c1
    if (rebuilt.rank, got.a, got.b, rebuilt.ch2x2) != (direct.rank, want.a, want.b, direct.ch2x2):
        raise ReconstructionError(
            f"module profile rebuilt {rebuilt} but Chern data gives {direct} for {e}"
        )
    return rebuilt


#: The degrees of the page's line bundles, and the zero class.
_M11, _M10, _M01, _M22 = BiDegree(-1, -1), BiDegree(-1, 0), BiDegree(0, -1), BiDegree(-2, -2)
_NO_CLASS = KClass.zero()

#: Variant selectors for the c2 = 8 second page.
VARIANT_CURVE = "curve_torsion"
VARIANT_STRUCTURE = "structure_sheaf"


@frozen
class E2Entry:
    """One identified entry of the second page."""

    kclass: KClass
    label: str
    torsion: TorsionDescriptor | None = None


@frozen
class E2Page:
    """Second page of the convergence spectral sequence for a nef bundle
    with determinant (2, 2): c2 in 6..8, rank >= 1 and a variant exactly at
    c2 = 8, checked however the page is built (``e2_page``, the constructor,
    ``replace``, ``copy`` or ``pickle``).  Its entries are derived from these
    three fields when read; they vanish outside p in {-2, -1, 0}, q in
    {0, 1}, and absent positions are zero."""

    c2: int
    rank: int
    variant: str | None

    def __post_init__(self) -> None:
        if self.c2 not in (6, 7, 8):
            raise HypothesisError(
                "the Hom/Ext profile is defined only for c2 >= 6, and the page is "
                f"identified only for c2 in 6..8; got c2={self.c2}"
            )
        if self.rank < 1:
            raise HypothesisError(f"rank must be positive, got {self.rank}")
        if self.c2 == 8:
            if self.variant not in (VARIANT_CURVE, VARIANT_STRUCTURE):
                raise HypothesisError(
                    f"c2=8 needs a variant ({VARIANT_CURVE} or {VARIANT_STRUCTURE}), got {self.variant!r}"
                )
        elif self.variant is not None:
            raise HypothesisError(f"c2={self.c2} admits no variant, got {self.variant!r}")

    @property
    def entries(self) -> Mapping[tuple[int, int], E2Entry]:
        """The nonzero entries by position, read-only: the (0, 0) corner
        O^(rank + 8 - c2) and the q = 1 entries of this c2 and variant."""
        n0 = self.rank + 8 - self.c2
        corner = E2Entry(KClass(n0, ZERO, 0), line_label(ZERO, n0))
        return MappingProxyType({(0, 0): corner, **_pages()[self.c2, self.variant][0]})

    def entry(self, p: int, q: int) -> KClass:
        """The class at (p, q), zero where the page has no entry.  A
        position that is not a pair of ints raises TypeError."""
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"page positions must be integers, got {p!r} and {q!r}")
        if (p, q) == (0, 0):
            return KClass(self.rank + 8 - self.c2, ZERO, 0)
        e = _pages()[self.c2, self.variant][0].get((p, q))
        return e.kclass if e is not None else _NO_CLASS

    def four_term_residual(self) -> KClass:
        """The alternating K-sum of the four-term presentation of the two
        q = 1 entries, the twisted terms' sum minus D; exactness forces zero."""
        _, twisted_terms, d = _pages()[self.c2, self.variant]
        return _line_sum(twisted_terms) - d

    def convergence_class(self) -> KClass:
        """Alternating sum over the whole page; equals the abutment class:
        (rank + 8 - c2)[O] + D, with D = [E2(-1,1)] - [E2(-2,1)]."""
        d = _pages()[self.c2, self.variant][2]
        return KClass(self.rank + 8 - self.c2 + d.rank, d.c1, d.ch2x2)

    def third_page_corner(self) -> KClass:
        """Class of the (0, 0) entry on the next page: the abutment minus
        its torsion quotient, [E] - [E2(-1,1)]."""
        return self.convergence_class() - self.entry(-1, 1)


def _alternating_sum(entries: Mapping[tuple[int, int], E2Entry]) -> KClass:
    """The sum of (-1)^(p+q) [E2(p,q)] over the given entries."""
    return sum((-e.kclass if (p + q) % 2 else e.kclass for (p, q), e in entries.items()), _NO_CLASS)


def _twisted_terms(c2: int) -> tuple[tuple[BiDegree, int], ...]:
    """The twisted (degree, multiplicity) terms of the q = 1 entries' four-term presentation."""
    drop, target = 4 - c2, c2 - 6
    return ((_M11, drop), (_M10, target), (_M01, target))


def _line_entry(deg: BiDegree, mult: int = 1) -> E2Entry:
    return E2Entry(mult * line_class(deg), line_label(deg, mult))


def _sheaf_entry(kind: TorsionKind, *support: BiDegree) -> E2Entry:
    t = TorsionDescriptor(kind, *support)
    return E2Entry(torsion_class(t), t.label(), t)


@functools.cache
def _pages() -> (
    dict[tuple[int, str | None], tuple[dict[tuple[int, int], E2Entry], tuple[tuple[BiDegree, int], ...], KClass]]
):
    """What a page has that does not move with the rank, keyed by (c2, variant),
    built at its first read and kept: its q = 1 entries, the twisted terms of
    their four-term presentation, and D = [E2(-1,1)] - [E2(-2,1)]."""
    return {
        (c2, variant): (q1, _twisted_terms(c2), _alternating_sum(q1))
        for (c2, variant), q1 in (
            ((6, None), {(-2, 1): _line_entry(_M11, 2)}),
            ((7, None), {(-2, 1): _line_entry(_M22), (-1, 1): _sheaf_entry(TorsionKind.POINT_SHEAF)}),
            ((8, VARIANT_CURVE), {(-1, 1): _sheaf_entry(TorsionKind.CURVE_TORSION, BiDegree(2, 2))}),
            ((8, VARIANT_STRUCTURE), {(-2, 1): _line_entry(_M22), (-1, 1): _sheaf_entry(TorsionKind.STRUCTURE_SHEAF)}),
        )
    }


def e2_page(c2: int, rank: int, variant: str | None = None) -> E2Page:
    """Build the identified second page for c2 in {6, 7, 8}.

    For c2 = 8 a variant is required: ``curve_torsion`` (torsion quotient
    on a (2,2) curve) or ``structure_sheaf`` (structure-sheaf quotient).
    ``E2Page`` checks these hypotheses.  The twisted terms and
    D = [E2(-1,1)] - [E2(-2,1)] come from a table built at its first read.
    Every call checks the twisted terms' line sum against D (four-term
    exactness) and (rank + 8 - c2)[O] + D against ``from_chern``
    (convergence), each as a comparison of int 4-tuples (rank, c1a, c1b,
    ch2x2).  A c2 or rank that is not an int raises TypeError.
    """
    if type(c2) is not int:
        raise TypeError(f"c2 must be an integer, got {c2!r}")
    if type(rank) is not int:
        raise TypeError(f"rank must be an integer, got {rank!r}")
    page = E2Page(c2, rank, variant)
    _, twisted_terms, d = _pages()[c2, variant]
    d_rank, d_a, d_b, d_ch2x2 = d.rank, d.c1.a, d.c1.b, d.ch2x2
    twisted = _line_sum(twisted_terms)
    if (twisted.rank, twisted.c1.a, twisted.c1.b, twisted.ch2x2) != (d_rank, d_a, d_b, d_ch2x2):
        raise ReconstructionError(f"four-term identity violated on page c2={c2}: residual {twisted - d}")
    # the (0, 0) corner O^n0 adds n0 to the rank of the q = 1 entries' sum D
    n0 = rank + 8 - c2
    k = from_chern(BundleNumerics(rank, _C1_22, c2))
    if (n0 + d_rank, d_a, d_b, d_ch2x2) != (k.rank, k.c1.a, k.c1.b, k.ch2x2):
        raise ReconstructionError(f"page c2={c2} converges to {KClass(n0 + d.rank, d.c1, d.ch2x2)}, expected {k}")
    return page
