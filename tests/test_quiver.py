"""The endomorphism algebra of the four-line exceptional collection."""

from __future__ import annotations

import re

import pytest

from nefq2 import BiDegree, HypothesisError
from nefq2.cohomology import HomExtProfile
from nefq2.quiver import COLLECTION, build_algebra, hom_ext_series, simple_module


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
    hom_dims = build_algebra()
    for i, gi in enumerate(COLLECTION):
        for j, gj in enumerate(COLLECTION):
            assert hom_dims[i][j] == _h0(gj - gi)


def test_hom_dims_values():
    hom_dims = build_algebra()
    assert hom_dims == (
        (1, 2, 2, 4),
        (0, 1, 0, 2),
        (0, 0, 1, 2),
        (0, 0, 0, 1),
    )
    assert sum(map(sum, hom_dims)) == 16


def test_algebra_is_triangular_with_no_backtracking():
    hom_dims = build_algebra()
    for i in range(4):
        assert hom_dims[i][i] == 1
        for j in range(i):
            assert hom_dims[i][j] == 0
    # the two middle members do not map to each other in either order
    assert hom_dims[1][2] == 0
    assert hom_dims[2][1] == 0


def test_composition_series_operations():
    # a composition series is a plain 4-tuple; the Grothendieck-group sum
    # is componentwise
    s, t = (1, 0, 2, 0), (0, 3, 0, 1)
    total = tuple(x + y for x, y in zip(s, t))
    assert total == (1, 3, 2, 1)


def test_simple_modules():
    for i in range(4):
        s = simple_module(i)
        assert len(s) == 4 and sum(s) == 1
        # the vertex idempotent e_i reads off the i-th multiplicity
        assert s[i] == 1
        assert s[(i + 1) % 4] == 0
    with pytest.raises(ValueError):
        simple_module(4)
    with pytest.raises(ValueError):
        simple_module(-1)
    # bool is an int subclass, but True is not vertex 1
    with pytest.raises(TypeError):
        simple_module(True)
    with pytest.raises(TypeError):
        simple_module(1.0)


def test_hom_ext_series_examples():
    profile = hom_ext_series(3, 7)
    assert isinstance(profile, HomExtProfile)
    assert profile == ((4, 0, 0, 0), (0, 1, 1, 3))
    assert hom_ext_series(3, 6) == ((5, 0, 0, 0), (0, 0, 0, 2))
    assert hom_ext_series(2, 8) == ((2, 0, 0, 0), (0, 2, 2, 4))


def test_hom_ext_series_general_shape():
    for rank in range(2, 10):
        for c2 in range(6, 9):
            hom, ext1 = hom_ext_series(rank, c2)
            assert hom == (rank + 8 - c2, 0, 0, 0)
            assert ext1 == (0, c2 - 6, c2 - 6, c2 - 4)


def test_hom_ext_series_hypothesis_check():
    with pytest.raises(HypothesisError):
        hom_ext_series(3, 5)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((True, 7), "rank must be an integer, got True"),
        ((3.0, 7), "rank must be an integer, got 3.0"),
        ((3, True), "c2 must be an integer, got True"),
        ((3, 7.0), "c2 must be an integer, got 7.0"),
    ],
    ids=["bool_rank", "float_rank", "bool_c2", "float_c2"],
)
def test_hom_ext_series_type_rule(args, message):
    # the argument is named, not a field of the Chern data built from it
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        hom_ext_series(*args)
