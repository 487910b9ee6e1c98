"""The tilting algebra of the standard exceptional collection.

The collection is the four line bundles O, O(1,0), O(0,1), O(1,1); the
algebra is the endomorphism algebra of their direct sum.  Its dimension
data is the 4x4 matrix hom_dims[i][j] = dim Hom(G_i, G_j) = h0 of the
degree difference, computed from scratch via Kuenneth:

         O   O(1,0)  O(0,1)  O(1,1)
    O    1     2       2       4
  (1,0)  0     1       0       2
  (0,1)  0     0       1       2
  (1,1)  0     0       0       1

Total dimension 16, strictly upper triangular (exceptionality), and the
two middle members do not map to each other.  Right modules over the
algebra are recorded only through composition-series data: the 4-tuple
of multiplicities of the four vertex simples.  The vertex idempotent e_i
acts on a module by projecting onto its i-th graded piece, so its only
numeric shadow here is reading off one coordinate, ``series[i]``.
"""

from __future__ import annotations

from .cohomology import BundleNumerics, HomExtProfile, cohomology_q2, ext1_module_profile
from .picard import BiDegree

#: Degrees of the four collection members, in order.
COLLECTION: tuple[BiDegree, BiDegree, BiDegree, BiDegree] = (
    BiDegree(0, 0),
    BiDegree(1, 0),
    BiDegree(0, 1),
    BiDegree(1, 1),
)

#: The determinant of every bundle whose module profile is read here.
_C1_22 = BiDegree(2, 2)


def build_algebra() -> tuple[tuple[int, int, int, int], ...]:
    """The algebra's dimension matrix hom_dims[i][j], computed from line
    bundle cohomology; its entries sum to the total dimension 16."""
    return tuple(tuple(cohomology_q2(gj - gi).h0 for gj in COLLECTION) for gi in COLLECTION)


def simple_module(i: int) -> tuple[int, int, int, int]:
    """The i-th vertex simple, as a composition series.

    >>> simple_module(2)
    (0, 0, 1, 0)
    """
    if type(i) is not int:
        raise TypeError(f"vertex index must be an integer, got {i!r}")
    if i not in (0, 1, 2, 3):
        raise ValueError(f"vertex index {i} out of range 0..3")
    return tuple(int(j == i) for j in range(4))


def hom_ext_series(rank: int, c2: int) -> HomExtProfile:
    """Composition series of Hom(G, E) and Ext^1(G, E) for a nef bundle E
    with determinant (2, 2), no ruling-degree sub-line-bundle and
    vanishing h1.  Requires 6 <= c2 <= 8, the upper end the nef bound
    c2 <= c1^2.  A rank or c2 that is not an int raises TypeError.

    >>> hom_ext_series(3, 7)
    HomExtProfile(hom=(4, 0, 0, 0), ext1=(0, 1, 1, 3))
    """
    if type(rank) is not int:
        raise TypeError(f"rank must be an integer, got {rank!r}")
    if type(c2) is not int:
        raise TypeError(f"c2 must be an integer, got {c2!r}")
    return ext1_module_profile(BundleNumerics(rank, _C1_22, c2))
