"""Derived-equivalence bookkeeping: from module data back to sheaf classes.

The derived equivalence induced by the tilting bundle sends the four
vertex simples to shifted line bundles:

    S0 -> O        [0]
    S1 -> O(-1,0)  [1]
    S2 -> O(0,-1)  [1]
    S3 -> O(-1,-1) [2]

So a module with composition series (d0, d1, d2, d3) contributes the
K-class  d0*[O] - d1*[O(-1,0)] - d2*[O(0,-1)] + d3*[O(-1,-1)]  (signs are
parities of the shifts).  Feeding in the Hom/Ext profile of a suitable
nef bundle must reproduce the bundle's own K-class exactly; that identity
is checked on every call and a failure is an implementation bug.

The convergence data of the equivalence's spectral sequence is exposed as
a small second-page table with possible entries only at (p, q) in
{(-2,1), (-1,1), (0,0)}.  For c2 in {6, 7, 8} the nonzero entries are
identified sheaves; c2 = 8 has two variants and this module asserts no
preference between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .cohomology import BundleNumerics
from .errors import HypothesisError, ReconstructionError
from .ktheory import KClass, TorsionDescriptor, TorsionKind, from_chern, line_class, line_label, torsion_class
from .picard import ZERO, BiDegree
from .quiver import hom_ext_series


@dataclass(frozen=True)
class ShiftedLineClass:
    """A line bundle placed in a single cohomological degree."""

    degree: BiDegree
    shift: int


#: Image of each vertex simple under the derived equivalence.
DICTIONARY: tuple[ShiftedLineClass, ...] = (
    ShiftedLineClass(BiDegree(0, 0), 0),
    ShiftedLineClass(BiDegree(-1, 0), 1),
    ShiftedLineClass(BiDegree(0, -1), 1),
    ShiftedLineClass(BiDegree(-1, -1), 2),
)


def series_tensor_class(series: tuple[int, int, int, int]) -> KClass:
    """K-class of the complex a module maps to, by additivity over its
    composition series, the 4-tuple of vertex-simple multiplicities.

    >>> series_tensor_class((0, 1, 1, 0))
    KClass(rank=-2, c1=BiDegree(a=1, b=1), ch2x2=0)
    """
    if any(type(x) is not int for x in series):
        raise TypeError(f"composition series entries must be integers, got {series!r}")
    if len(series) != 4 or min(series) < 0:
        raise ValueError(f"composition series must be 4 non-negative integers, got {series!r}")
    total = KClass.zero()
    for mult, entry in zip(series, DICTIONARY):
        signed = mult if entry.shift % 2 == 0 else -mult
        total = total + signed * line_class(entry.degree)
    return total


def reconstruct(e: BundleNumerics) -> KClass:
    """Recover the K-class of a nef bundle with determinant (2, 2) and
    c2 >= 6 from its Hom/Ext module profile alone, and check it against
    the direct conversion.  Returns the reconstructed class.

    >>> reconstruct(BundleNumerics(4, BiDegree(2, 2), 6))
    KClass(rank=4, c1=BiDegree(a=2, b=2), ch2x2=-4)
    """
    hom, ext1 = hom_ext_series(e.rank, e.c2)
    rebuilt = series_tensor_class(hom) - series_tensor_class(ext1)
    direct = from_chern(e)
    if rebuilt != direct:
        raise ReconstructionError(
            f"module profile rebuilt {rebuilt} but Chern data gives {direct} for {e}"
        )
    return rebuilt


#: Variant selectors for the c2 = 8 second page.
VARIANT_CURVE = "curve_torsion"
VARIANT_STRUCTURE = "structure_sheaf"


@dataclass(frozen=True)
class E2Entry:
    """One identified entry of the second page."""

    kclass: KClass
    label: str
    torsion: TorsionDescriptor | None = None


@dataclass(frozen=True)
class E2Page:
    """Second page of the convergence spectral sequence for a nef bundle
    with determinant (2, 2).  Entries vanish outside p in {-2, -1, 0},
    q in {0, 1}; absent positions are zero."""

    c2: int
    rank: int
    variant: str | None
    entries: Mapping[tuple[int, int], E2Entry]

    def entry(self, p: int, q: int) -> KClass:
        e = self.entries.get((p, q))
        return e.kclass if e is not None else KClass.zero()

    def four_term_residual(self) -> KClass:
        """The alternating K-sum of the four-term presentation of the two
        q = 1 entries; exactness forces zero."""
        middle_drop = (self.c2 - 4) * line_class(BiDegree(-1, -1))
        target = (self.c2 - 6) * (line_class(BiDegree(-1, 0)) + line_class(BiDegree(0, -1)))
        return self.entry(-2, 1) - middle_drop + target - self.entry(-1, 1)

    def convergence_class(self) -> KClass:
        """Alternating sum over the whole page; equals the abutment class."""
        total = KClass.zero()
        for (p, q), e in self.entries.items():
            signed = e.kclass if (p + q) % 2 == 0 else -e.kclass
            total = total + signed
        return total

    def third_page_corner(self) -> KClass:
        """Class of the (0, 0) entry on the next page: the abutment minus
        its torsion quotient, [E] - [E2(-1,1)]."""
        return self.convergence_class() - self.entry(-1, 1)


def e2_page(c2: int, rank: int, variant: str | None = None) -> E2Page:
    """Build the identified second page for c2 in {6, 7, 8}.

    For c2 = 8 a variant is required: ``curve_torsion`` (torsion quotient
    on a (2,2) curve) or ``structure_sheaf`` (structure-sheaf quotient).
    The four-term exactness identity and the convergence identity are
    recomputed on every call.
    """
    if c2 not in (6, 7, 8):
        raise HypothesisError(
            "the Hom/Ext profile is defined only for c2 >= 6, and the page is "
            f"identified only for c2 in 6..8; got c2={c2}"
        )
    if rank < 1:
        raise HypothesisError(f"rank must be positive, got {rank}")
    if c2 == 8:
        if variant not in (VARIANT_CURVE, VARIANT_STRUCTURE):
            raise HypothesisError(
                f"c2=8 needs a variant ({VARIANT_CURVE} or {VARIANT_STRUCTURE}), got {variant!r}"
            )
    elif variant is not None:
        raise HypothesisError(f"c2={c2} admits no variant, got {variant!r}")

    n0 = rank + 8 - c2
    entries: dict[tuple[int, int], E2Entry] = {
        (0, 0): E2Entry(n0 * line_class(ZERO), line_label(ZERO, n0))
    }
    if c2 == 6:
        entries[(-2, 1)] = E2Entry(2 * line_class(BiDegree(-1, -1)), line_label(BiDegree(-1, -1), 2))
    elif c2 == 7:
        entries[(-2, 1)] = E2Entry(line_class(BiDegree(-2, -2)), line_label(BiDegree(-2, -2)))
        point = TorsionDescriptor(TorsionKind.POINT_SHEAF)
        entries[(-1, 1)] = E2Entry(torsion_class(point), point.label(), point)
    elif variant == VARIANT_CURVE:
        curve = TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(2, 2), 0)
        entries[(-1, 1)] = E2Entry(torsion_class(curve), curve.label(), curve)
    else:
        entries[(-2, 1)] = E2Entry(line_class(BiDegree(-2, -2)), line_label(BiDegree(-2, -2)))
        sheaf = TorsionDescriptor(TorsionKind.STRUCTURE_SHEAF)
        entries[(-1, 1)] = E2Entry(torsion_class(sheaf), sheaf.label(), sheaf)

    page = E2Page(c2, rank, variant, MappingProxyType(entries))
    residual = page.four_term_residual()
    if residual != KClass.zero():
        raise ReconstructionError(f"four-term identity violated on page c2={c2}: residual {residual}")
    abutment = from_chern(BundleNumerics(rank, BiDegree(2, 2), c2))
    if page.convergence_class() != abutment:
        raise ReconstructionError(
            f"page c2={c2} converges to {page.convergence_class()}, expected {abutment}"
        )
    return page
