"""Line-bundle cohomology, Riemann-Roch, and the Hom/Ext profile."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefq2 import BiDegree, BundleNumerics, HypothesisError, euler_char
from nefq2.cohomology import (
    CohomologyVector,
    cohomology_q2,
    ext1_module_profile,
    is_weak_fano,
    projective_bundle_degree,
)


def test_p1_line_cohomology():
    # h^i of O(d, 0) is h^i of O(d) on a line
    assert cohomology_q2(BiDegree(3, 0)).as_tuple() == (4, 0, 0)
    assert cohomology_q2(BiDegree(0, 0)).as_tuple() == (1, 0, 0)
    assert cohomology_q2(BiDegree(-1, 0)).as_tuple() == (0, 0, 0)
    assert cohomology_q2(BiDegree(-2, 0)).as_tuple() == (0, 1, 0)
    assert cohomology_q2(BiDegree(-5, 0)).as_tuple() == (0, 4, 0)


def test_p1_line_cohomology_takes_only_integer_degrees():
    # a tuple is not a BiDegree: a TypeError, not an AttributeError
    for x in ((1, 1), [1, 1], 1):
        with pytest.raises(TypeError, match=r"^degree must be a BiDegree, got "):
            cohomology_q2(x)


def test_p1_euler_characteristic_is_degree_plus_one():
    for d in range(-12, 13):
        h0, h1, h2 = cohomology_q2(BiDegree(d, 0)).as_tuple()
        assert h0 - h1 == d + 1 and h2 == 0
        assert h0 >= 0 and h1 >= 0
        assert h0 == 0 or h1 == 0


def test_surface_line_cohomology_examples():
    assert cohomology_q2(BiDegree(1, 1)).as_tuple() == (4, 0, 0)
    assert cohomology_q2(BiDegree(2, 2)).as_tuple() == (9, 0, 0)
    assert cohomology_q2(BiDegree(-1, -1)).as_tuple() == (0, 0, 0)
    assert cohomology_q2(BiDegree(-2, -2)).as_tuple() == (0, 0, 1)
    assert cohomology_q2(BiDegree(-3, 0)).as_tuple() == (0, 2, 0)
    assert cohomology_q2(BiDegree(1, -2)).as_tuple() == (0, 2, 0)
    assert cohomology_q2(BiDegree(-3, -2)).as_tuple() == (0, 0, 2)


def test_surface_line_cohomology_is_concentrated_in_one_degree():
    for a in range(-8, 9):
        for b in range(-8, 9):
            v = cohomology_q2(BiDegree(a, b))
            assert sum(1 for h in v.as_tuple() if h > 0) <= 1


def test_serre_duality_on_lines():
    # h^q(a, b) == h^{2-q}(-2-a, -2-b), canonical degree (-2, -2)
    for a in range(-8, 9):
        for b in range(-8, 9):
            v = cohomology_q2(BiDegree(a, b))
            w = cohomology_q2(BiDegree(-2 - a, -2 - b))
            assert (v.h0, v.h1, v.h2) == (w.h2, w.h1, w.h0)


def test_euler_char_agrees_with_kunneth_on_lines():
    for a in range(-8, 9):
        for b in range(-8, 9):
            line = BundleNumerics(1, BiDegree(a, b), 0)
            assert euler_char(line) == cohomology_q2(BiDegree(a, b)).chi
            assert euler_char(line) == (a + 1) * (b + 1)


def test_euler_char_twist_arguments():
    line = BundleNumerics(1, BiDegree(0, 0), 0)
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert euler_char(line, p, q) == (p + 1) * (q + 1)


def test_euler_char_rejects_non_integer_twists():
    e = BundleNumerics(3, BiDegree(2, 2), 6)
    for p, q in ((True, 0), (0, False), (1.0, 0), (0, 1.0), ("1", 0)):
        with pytest.raises(TypeError, match="twist degrees must be integers"):
            euler_char(e, p, q)
    # a tuple is not a BundleNumerics: a TypeError, not an AttributeError
    for function in (euler_char, projective_bundle_degree, is_weak_fano, ext1_module_profile):
        with pytest.raises(TypeError, match=r"^Chern data must be a BundleNumerics, got "):
            function((2, (2, 2), 5))


def test_euler_char_examples():
    e = BundleNumerics(2, BiDegree(2, 2), 5)
    assert euler_char(e) == 5
    assert euler_char(e, -1, 0) == 1
    assert euler_char(e, 0, -1) == 1
    assert euler_char(e, -1, -1) == -1


def test_euler_char_c1_22_profile():
    # chi(E) = r + 8 - c2, chi of the three standard down twists
    for r in range(1, 7):
        for c2 in range(0, 9):
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            assert euler_char(e) == r + 8 - c2
            assert euler_char(e, -1, 0) == 6 - c2
            assert euler_char(e, 0, -1) == 6 - c2
            assert euler_char(e, -1, -1) == 4 - c2


def test_cohomology_vector_validation():
    with pytest.raises(ValueError):
        CohomologyVector(-1, 0, 0)
    with pytest.raises(TypeError):
        CohomologyVector(True, 0, 0)
    with pytest.raises(TypeError):
        CohomologyVector(0, 1.0, 0)
    v = CohomologyVector(2, 1, 0)
    assert v.chi == 1
    assert v.as_tuple() == (2, 1, 0)


def test_bundle_numerics_requires_positive_rank():
    with pytest.raises(ValueError):
        BundleNumerics(0, BiDegree(1, 1), 0)
    assert str(BundleNumerics(3, BiDegree(2, -1), 4)) == "rank=3 c1=(2,-1) c2=4"


def test_bundle_numerics_rejects_non_integers():
    with pytest.raises(TypeError):
        BundleNumerics(True, BiDegree(1, 1), 0)
    with pytest.raises(TypeError):
        BundleNumerics(2, BiDegree(1, 1), False)
    with pytest.raises(TypeError):
        BundleNumerics(2, BiDegree(1, 1), 1.0)


def test_projective_bundle_degree_and_weak_fano():
    e = BundleNumerics(2, BiDegree(2, 2), 7)
    assert projective_bundle_degree(e) == 1
    assert is_weak_fano(e)
    f = BundleNumerics(2, BiDegree(2, 2), 8)
    assert projective_bundle_degree(f) == 0
    assert not is_weak_fano(f)
    # degree is c1^2 - c2, independent of rank
    for r in range(1, 5):
        assert projective_bundle_degree(BundleNumerics(r, BiDegree(2, 1), 3)) == 1


def test_ext1_profile_examples():
    hom, ext1 = ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), 6))
    assert hom == (5, 0, 0, 0)
    assert ext1 == (0, 0, 0, 2)
    hom, ext1 = ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), 7))
    assert hom == (4, 0, 0, 0)
    assert ext1 == (0, 1, 1, 3)
    hom, ext1 = ext1_module_profile(BundleNumerics(2, BiDegree(2, 2), 8))
    assert hom == (2, 0, 0, 0)
    assert ext1 == (0, 2, 2, 4)


def test_ext1_profile_totals_track_euler_characteristics():
    for r in range(2, 9):
        for c2 in range(6, 9):
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            hom, ext1 = ext1_module_profile(e)
            assert hom[0] == euler_char(e)
            assert ext1[1] == -euler_char(e, -1, 0)
            assert ext1[2] == -euler_char(e, 0, -1)
            assert ext1[3] == -euler_char(e, -1, -1)
            assert all(n >= 0 for n in hom + ext1)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 10**12), st.integers(6, 8))
def test_ext1_profile_is_the_euler_characteristics_of_four_twists(r, c2):
    # the profile evaluates Riemann-Roch once and takes the twists as differences
    e = BundleNumerics(r, BiDegree(2, 2), c2)
    chi = euler_char(e)
    ext1 = (0, -euler_char(e, -1, 0), -euler_char(e, 0, -1), -euler_char(e, -1, -1))
    assert ext1_module_profile(e) == ((chi, 0, 0, 0), ext1)


def test_ext1_profile_hypothesis_checks():
    with pytest.raises(HypothesisError):
        ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), 5))
    with pytest.raises(HypothesisError):
        ext1_module_profile(BundleNumerics(3, BiDegree(2, 1), 6))
