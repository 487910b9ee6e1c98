"""K-class bookkeeping: Chern data, twists, quotients, torsion, ideals."""

from __future__ import annotations

import random

import pytest

from nefq2 import (
    BiDegree,
    BundleNumerics,
    HypothesisError,
    MalformedClassError,
    VirtualClassError,
    euler_char,
)
from nefq2.catalog import RankExpr
from nefq2.ktheory import (
    POINT_CLASS,
    IdealResolution,
    KClass,
    TorsionDescriptor,
    TorsionKind,
    four_term_quotient,
    from_chern,
    ideal_sheaf_class,
    line_class,
    line_label,
    ses_quotient_chern,
    sum_of_lines,
    to_chern,
    torsion_class,
    twist_chern,
)
from nefq2.picard import ZERO, intersect

from whitney_oracle import quotient_chern


def test_line_class_examples():
    assert line_class(BiDegree(-1, -1)) == KClass(1, BiDegree(-1, -1), 2)
    assert line_class(BiDegree(0, 0)) == KClass(1, BiDegree(0, 0), 0)
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert line_class(BiDegree(a, b)).ch2x2 == 2 * a * b


def test_kclass_group_operations():
    x = KClass(2, BiDegree(1, 0), 3)
    y = KClass(1, BiDegree(0, 2), -1)
    assert x + y == KClass(3, BiDegree(1, 2), 2)
    assert x - y == KClass(1, BiDegree(1, -2), 4)
    assert -y == KClass(-1, BiDegree(0, -2), 1)
    assert 2 * x == KClass(4, BiDegree(2, 0), 6)
    assert x + KClass.zero() == x
    assert str(POINT_CLASS) == "(rank 0, c1 (0,0), 2ch2 2)"


def test_kclass_rejects_non_integers():
    with pytest.raises(TypeError):
        KClass(True, BiDegree(0, 0), 0)
    with pytest.raises(TypeError):
        KClass(1, BiDegree(0, 0), False)
    with pytest.raises(TypeError):
        KClass(1.0, BiDegree(0, 0), 0)
    with pytest.raises(TypeError):
        True * line_class(BiDegree(1, 0))
    with pytest.raises(TypeError):
        line_class(BiDegree(1, 0)) * False
    with pytest.raises(TypeError):
        line_class(BiDegree(1, 1)) + 1
    with pytest.raises(TypeError):
        line_class(BiDegree(1, 1)) - BiDegree(1, 1)
    # a tuple is not a BiDegree: a TypeError, not an AttributeError
    for x in ((1, 1), [1, 1], 1):
        with pytest.raises(TypeError, match=r"^degree must be a BiDegree, got "):
            line_class(x)
    with pytest.raises(TypeError, match=r"^class must be a KClass, got "):
        to_chern((1, (0, 0), 0))
    e = BundleNumerics(2, BiDegree(2, 2), 5)
    for call in (
        lambda: from_chern((2, (2, 2), 5)),
        lambda: twist_chern((2, (2, 2), 5), BiDegree(1, 0)),
        lambda: ses_quotient_chern((2, (2, 2), 5), e),
        lambda: ses_quotient_chern(e, (2, (2, 2), 5)),
    ):
        with pytest.raises(TypeError, match=r"^Chern data must be a BundleNumerics, got "):
            call()


def test_sum_of_lines():
    k = sum_of_lines([(BiDegree(1, 1), 2), (BiDegree(0, 0), 3)])
    assert k == KClass(5, BiDegree(2, 2), 4)
    with pytest.raises(ValueError):
        sum_of_lines([(BiDegree(1, 0), -1)])
    for term in ((BiDegree(1, 0), True), (BiDegree(1, 0), 1.5), ((1, 0), 1)):
        with pytest.raises(TypeError, match=r"^a term is a BiDegree and an int multiplicity, got "):
            sum_of_lines([term])


def test_to_chern_round_trip():
    e = to_chern(KClass(2, BiDegree(2, 2), 4))
    assert e == BundleNumerics(2, BiDegree(2, 2), 2)
    assert from_chern(e) == KClass(2, BiDegree(2, 2), 4)
    rng = random.Random(7)
    for _ in range(200):
        n = BundleNumerics(
            rng.randint(1, 9),
            BiDegree(rng.randint(-6, 6), rng.randint(-6, 6)),
            rng.randint(-12, 12),
        )
        assert to_chern(from_chern(n)) == n


def test_to_chern_rejects_virtual_and_malformed():
    with pytest.raises(VirtualClassError):
        to_chern(KClass(0, BiDegree(0, 0), 2))
    with pytest.raises(VirtualClassError):
        to_chern(KClass(-1, BiDegree(1, 1), 0))
    # c1^2 - 2ch2 must be even
    with pytest.raises(MalformedClassError):
        to_chern(KClass(1, BiDegree(0, 0), 1))


def test_twist_examples():
    e = BundleNumerics(2, BiDegree(1, 1), 1)
    assert twist_chern(e, BiDegree(1, 0)) == BundleNumerics(2, BiDegree(3, 1), 2)
    # twisting a line bundle never creates c2
    for a in range(-3, 4):
        for b in range(-3, 4):
            t = twist_chern(BundleNumerics(1, BiDegree(0, 0), 0), BiDegree(a, b))
            assert t == BundleNumerics(1, BiDegree(a, b), 0)


def test_twist_chern_checks_its_twist_before_building_anything():
    # at rank 10**6, r * (1, 0) would be a 2,000,000-element tuple before the + failed
    e = BundleNumerics(10**6, BiDegree(1, 1), 0)
    for line in ((1, 0), 1, True, None):
        with pytest.raises(TypeError, match=r"^twist must be a BiDegree, got "):
            twist_chern(e, line)


def test_twist_round_trip_and_k_theory_consistency():
    rng = random.Random(41)
    for _ in range(200):
        e = BundleNumerics(
            rng.randint(1, 8),
            BiDegree(rng.randint(-6, 6), rng.randint(-6, 6)),
            rng.randint(-10, 10),
        )
        d = BiDegree(rng.randint(-4, 4), rng.randint(-4, 4))
        assert twist_chern(twist_chern(e, d), -d) == e
        # in K-theory, twisting multiplies by the line class:
        # rank fixed, c1 += r*d, 2ch2 += 2 c1.d + 2r*d1*d2
        k = from_chern(e)
        expected = KClass(
            k.rank,
            k.c1 + k.rank * d,
            k.ch2x2 + 2 * intersect(k.c1, d) + k.rank * 2 * d.a * d.b,
        )
        assert from_chern(twist_chern(e, d)) == expected


def test_twist_preserves_euler_char_shift():
    e = BundleNumerics(3, BiDegree(2, 2), 6)
    for p in range(-3, 4):
        for q in range(-3, 4):
            assert euler_char(e, p, q) == euler_char(twist_chern(e, BiDegree(p, q)))


def test_ses_quotient_example():
    sub = BundleNumerics(1, BiDegree(-1, -2), 0)
    mid = BundleNumerics(4, BiDegree(1, 0), 0)
    assert ses_quotient_chern(sub, mid) == BundleNumerics(3, BiDegree(2, 2), 6)


def test_ses_quotient_requires_rank_drop():
    sub = BundleNumerics(2, BiDegree(0, 0), 0)
    mid = BundleNumerics(2, BiDegree(1, 1), 0)
    with pytest.raises(VirtualClassError):
        ses_quotient_chern(sub, mid)


def test_ses_quotient_against_whitney_oracle():
    rng = random.Random(97)
    for _ in range(200):
        sub_terms = [
            ((rng.randint(-4, 4), rng.randint(-4, 4)), 1)
            for _ in range(rng.randint(1, 3))
        ]
        extra = [
            ((rng.randint(-4, 4), rng.randint(-4, 4)), 1)
            for _ in range(rng.randint(1, 4))
        ]
        mid_terms = sub_terms + extra
        sub = to_chern(sum_of_lines([(BiDegree(*d), m) for d, m in sub_terms]))
        mid = to_chern(sum_of_lines([(BiDegree(*d), m) for d, m in mid_terms]))
        got = ses_quotient_chern(sub, mid)
        rank, c1, c2 = quotient_chern(sub_terms, mid_terms)
        assert (got.rank, (got.c1.a, got.c1.b), got.c2) == (rank, c1, c2)


def test_torsion_classes():
    assert torsion_class(TorsionDescriptor(TorsionKind.POINT_SHEAF)) == POINT_CLASS
    assert torsion_class(TorsionDescriptor(TorsionKind.STRUCTURE_SHEAF)) == KClass(
        1, BiDegree(0, 0), 0
    )
    curve = TorsionDescriptor(TorsionKind.CURVE_TORSION, support=BiDegree(2, 2))
    assert torsion_class(curve) == KClass(0, BiDegree(2, 2), -8)
    ruling = TorsionDescriptor(TorsionKind.CURVE_TORSION, support=BiDegree(1, 0))
    assert torsion_class(ruling) == KClass(0, BiDegree(1, 0), 0)


def test_torsion_support_must_be_effective():
    # refused when the descriptor is built, before its label or a case's
    # JSON can show it
    for support in (BiDegree(-1, 0), BiDegree(-1, 2)):
        with pytest.raises(HypothesisError, match=rf"^curve support \({support.a},{support.b}\) is not effective$"):
            TorsionDescriptor(TorsionKind.CURVE_TORSION, support)
    curve = TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(2, 2))
    assert curve.label() == "O_C(0) on a (2,2) curve"


def test_torsion_descriptor_shape_validation():
    with pytest.raises(HypothesisError):
        TorsionDescriptor(TorsionKind.POINT_SHEAF, support=BiDegree(1, 0))
    with pytest.raises(HypothesisError):
        TorsionDescriptor(TorsionKind.CURVE_TORSION)


def test_only_curve_torsion_takes_a_twist():
    # a point or structure-sheaf cokernel has no degree to twist: its class,
    # label and JSON would all drop the twist
    for kind in (TorsionKind.POINT_SHEAF, TorsionKind.STRUCTURE_SHEAF):
        for twist in (3, -1):
            with pytest.raises(HypothesisError, match=f"{kind.value} cokernel takes no twist, got {twist}"):
                TorsionDescriptor(kind, twist_degree=twist)
    twisted, curve = (TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(2, 2), d) for d in (3, 0))
    assert torsion_class(twisted) == torsion_class(curve) + 3 * POINT_CLASS


def test_torsion_descriptor_field_types():
    for args in (
        ("point",),
        (TorsionKind.CURVE_TORSION, (1, 0)),
        (TorsionKind.CURVE_TORSION, BiDegree(1, 0), True),
        (TorsionKind.CURVE_TORSION, BiDegree(1, 0), 1.0),
        (TorsionKind.POINT_SHEAF, None, False),
    ):
        with pytest.raises(TypeError):
            TorsionDescriptor(*args)
    # the kind's value is not a descriptor: a TypeError, not an AttributeError
    with pytest.raises(TypeError, match=r"^cokernel must be a TorsionDescriptor, got "):
        torsion_class("point")


def test_four_term_quotient_matches_oracle():
    sub = sum_of_lines([(BiDegree(-2, -2), 1)])
    mid = sum_of_lines([(BiDegree(0, 0), 4)])
    k = four_term_quotient(
        sub, mid, torsion_class(TorsionDescriptor(TorsionKind.POINT_SHEAF))
    )
    assert to_chern(k) == BundleNumerics(3, BiDegree(2, 2), 7)
    rank, c1, c2 = quotient_chern([((-2, -2), 1)], [((0, 0), 4)], ("point",))
    assert (rank, c1, c2) == (3, (2, 2), 7)


def test_four_term_quotient_type_rule():
    # ints and bidegrees support the arithmetic, but they are not classes
    k = line_class(BiDegree(1, 0))
    for args in ((1, 2, 3), (BiDegree(1, 0), BiDegree(0, 1), BiDegree(1, 1)), (k, k, None), (k, (1, (1, 0), 0), k)):
        with pytest.raises(TypeError, match=r"^classes must be KClasses, got "):
            four_term_quotient(*args)


def test_line_label_type_rule():
    assert line_label(ZERO, RankExpr(2, 1)) == "O^(r+2)"
    assert line_label(BiDegree(1, 1), -2) == "O(1,1)^(-2)"
    for deg in ((1, 1), [1, 1], None):
        with pytest.raises(TypeError, match=r"^degree must be a BiDegree, got "):
            line_label(deg)
    for mult in (True, 2.5, "r", None, (RankExpr(1),)):
        with pytest.raises(TypeError, match=r"^multiplicity must be an int or a RankExpr, got "):
            line_label(ZERO, mult)


def test_ideal_sheaf_classes():
    assert ideal_sheaf_class(IdealResolution.EMPTY) == KClass(1, BiDegree(0, 0), 0)
    two = ideal_sheaf_class(IdealResolution.TWO_POINTS_GENERAL)
    assert two == KClass(1, BiDegree(0, 0), -4)
    assert two == line_class(BiDegree(0, 0)) - 2 * POINT_CLASS
    ci = ideal_sheaf_class(IdealResolution.CI_11_21)
    assert ci == KClass(1, BiDegree(0, 0), -6)
    assert ci == line_class(BiDegree(0, 0)) - 3 * POINT_CLASS


def test_ideal_sheaf_rules_take_only_a_resolution():
    # the enum's value or name is a TypeError, not a KeyError
    for kind in ("empty", "EMPTY", None, 0):
        with pytest.raises(TypeError, match="IdealResolution"):
            ideal_sheaf_class(kind)


def test_ideal_sheaf_classes_match_oracle():
    # c2 of an ideal sheaf of points equals its length
    assert quotient_chern([], [((0, 0), 1)]) == (1, (0, 0), 0)
    assert to_chern(ideal_sheaf_class(IdealResolution.EMPTY)).c2 == 0
    assert quotient_chern([((-2, -2), 1)], [((-1, -1), 2)]) == (1, (0, 0), 2)
    assert to_chern(ideal_sheaf_class(IdealResolution.TWO_POINTS_GENERAL)).c2 == 2
    assert quotient_chern([((-3, -2), 1)], [((-2, -1), 1), ((-1, -1), 1)]) == (
        1,
        (0, 0),
        3,
    )
    assert to_chern(ideal_sheaf_class(IdealResolution.CI_11_21)).c2 == 3
