"""The endomorphism algebra of the four-line exceptional collection."""

from __future__ import annotations

import pytest

from nefq2 import BiDegree, HypothesisError
from nefq2.quiver import (
    COLLECTION,
    CompositionSeries,
    build_algebra,
    hom_ext_series,
    simple_module,
)


def _h0(d: BiDegree) -> int:
    # local recount, independent of the package's cohomology code
    return (d.a + 1) * (d.b + 1) if d.a >= 0 and d.b >= 0 else 0


def test_collection_members():
    assert COLLECTION == (
        BiDegree(0, 0),
        BiDegree(1, 0),
        BiDegree(0, 1),
        BiDegree(1, 1),
    )


def test_hom_dims_match_independent_recount():
    alg = build_algebra()
    for i, gi in enumerate(COLLECTION):
        for j, gj in enumerate(COLLECTION):
            assert alg.hom_dim(i, j) == _h0(gj - gi)


def test_hom_dims_values():
    alg = build_algebra()
    assert alg.hom_dims == (
        (1, 2, 2, 4),
        (0, 1, 0, 2),
        (0, 0, 1, 2),
        (0, 0, 0, 1),
    )
    assert alg.total_dimension() == 16


def test_algebra_is_triangular_with_no_backtracking():
    alg = build_algebra()
    for i in range(4):
        assert alg.hom_dim(i, i) == 1
        for j in range(i):
            assert alg.hom_dim(i, j) == 0
    # the two middle members do not map to each other in either order
    assert alg.hom_dim(1, 2) == 0
    assert alg.hom_dim(2, 1) == 0


def test_composition_series_operations():
    s = CompositionSeries((1, 0, 2, 0))
    t = CompositionSeries((0, 3, 0, 1))
    assert (s + t).d == (1, 3, 2, 1)
    assert s.total() == 3
    with pytest.raises(ValueError):
        CompositionSeries((1, -1, 0, 0))


def test_simple_modules():
    for i in range(4):
        s = simple_module(i)
        assert s.total() == 1
        # the vertex idempotent e_i reads off the i-th multiplicity
        assert s.d[i] == 1
        assert s.d[(i + 1) % 4] == 0
    with pytest.raises(ValueError):
        simple_module(4)
    with pytest.raises(ValueError):
        simple_module(-1)


def test_hom_ext_series_examples():
    hom, ext1 = hom_ext_series(3, 7)
    assert hom.d == (4, 0, 0, 0)
    assert ext1.d == (0, 1, 1, 3)
    hom, ext1 = hom_ext_series(3, 6)
    assert hom.d == (5, 0, 0, 0)
    assert ext1.d == (0, 0, 0, 2)
    hom, ext1 = hom_ext_series(2, 8)
    assert hom.d == (2, 0, 0, 0)
    assert ext1.d == (0, 2, 2, 4)


def test_hom_ext_series_general_shape():
    for rank in range(2, 10):
        for c2 in range(6, 9):
            hom, ext1 = hom_ext_series(rank, c2)
            assert hom.d == (rank + 8 - c2, 0, 0, 0)
            assert ext1.d == (0, c2 - 6, c2 - 6, c2 - 4)


def test_hom_ext_series_hypothesis_check():
    with pytest.raises(HypothesisError):
        hom_ext_series(3, 5)
