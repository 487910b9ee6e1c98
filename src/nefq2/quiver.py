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
algebra are recorded only through composition-series data: the vector of
multiplicities of the four vertex simples.  The vertex idempotent e_i
acts on a module by projecting onto its i-th graded piece, so its only
numeric shadow here is reading off one coordinate, ``series.d[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import BundleNumerics, cohomology_q2, ext1_module_profile
from .picard import BiDegree

#: Degrees of the four collection members, in order.
COLLECTION: tuple[BiDegree, BiDegree, BiDegree, BiDegree] = (
    BiDegree(0, 0),
    BiDegree(1, 0),
    BiDegree(0, 1),
    BiDegree(1, 1),
)


@dataclass(frozen=True)
class CompositionSeries:
    """Multiplicities (d0, d1, d2, d3) of the vertex simples in a finite
    module.  Addition is the Grothendieck-group operation."""

    d: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.d) != 4 or any(not isinstance(x, int) or x < 0 for x in self.d):
            raise ValueError("composition series must be 4 non-negative integers")

    def __add__(self, other: CompositionSeries) -> CompositionSeries:
        a, b = self.d, other.d
        return CompositionSeries((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def total(self) -> int:
        return sum(self.d)


@dataclass(frozen=True)
class ExceptionalAlgebra:
    """Dimension data of the tilting algebra."""

    collection: tuple[BiDegree, BiDegree, BiDegree, BiDegree]
    hom_dims: tuple[tuple[int, int, int, int], ...]

    def hom_dim(self, i: int, j: int) -> int:
        return self.hom_dims[i][j]

    def total_dimension(self) -> int:
        return sum(sum(row) for row in self.hom_dims)


def build_algebra() -> ExceptionalAlgebra:
    """Compute the algebra's dimension matrix from line bundle cohomology."""
    dims = tuple(
        tuple(cohomology_q2(gj - gi).h0 for gj in COLLECTION) for gi in COLLECTION
    )
    return ExceptionalAlgebra(COLLECTION, dims)


def simple_module(i: int) -> CompositionSeries:
    """The i-th vertex simple, as a composition series.

    >>> simple_module(2)
    CompositionSeries(d=(0, 0, 1, 0))
    """
    if i not in (0, 1, 2, 3):
        raise ValueError(f"vertex index {i} out of range 0..3")
    d = [0, 0, 0, 0]
    d[i] = 1
    return CompositionSeries(tuple(d))


def hom_ext_series(rank: int, c2: int) -> tuple[CompositionSeries, CompositionSeries]:
    """Composition series of Hom(G, E) and Ext^1(G, E) for a nef bundle E
    with determinant (2, 2), no ruling-degree sub-line-bundle and
    vanishing h1.  Requires c2 >= 6 (and the nef bound c2 <= rank + 8).

    >>> hom_ext_series(3, 7)
    (CompositionSeries(d=(4, 0, 0, 0)), CompositionSeries(d=(0, 1, 1, 3)))
    """
    profile = ext1_module_profile(BundleNumerics(rank, BiDegree(2, 2), c2))
    return (CompositionSeries(profile.hom), CompositionSeries(profile.ext1))
