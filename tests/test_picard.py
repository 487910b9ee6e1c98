"""Intersection arithmetic on the rank-two divisor lattice."""

from __future__ import annotations

import random

import pytest

from nefq2 import BiDegree
from nefq2.picard import ZERO, intersect, is_effective, self_intersection


def test_bidegree_requires_integers():
    with pytest.raises(TypeError):
        BiDegree(1.5, 0)
    with pytest.raises(TypeError):
        BiDegree(1, "2")
    # bool is an int subclass, but True is not a degree
    with pytest.raises(TypeError):
        BiDegree(True, False)
    with pytest.raises(TypeError):
        BiDegree(1, True)
    with pytest.raises(TypeError):
        True * BiDegree(1, 1)
    with pytest.raises(TypeError):
        BiDegree(1, 1) * 1.5
    with pytest.raises(TypeError):
        BiDegree(1, 1) + 1
    with pytest.raises(TypeError):
        BiDegree(1, 1) - (1, 1)


def test_bidegree_arithmetic():
    x = BiDegree(2, -1)
    y = BiDegree(1, 3)
    assert x + y == BiDegree(3, 2)
    assert x - y == BiDegree(1, -4)
    assert -x == BiDegree(-2, 1)
    assert 3 * x == BiDegree(6, -3)
    assert x * 3 == BiDegree(6, -3)
    assert str(x) == "(2,-1)"


def test_swap_is_an_involution():
    x = BiDegree(4, -7)
    assert x.swap() == BiDegree(-7, 4)
    assert x.swap().swap() == x


def test_intersection_examples():
    assert intersect(BiDegree(1, 1), BiDegree(2, 1)) == 3
    assert intersect(BiDegree(2, 2), BiDegree(2, 2)) == 8
    # the two rulings: each is square-zero and they meet once
    assert intersect(BiDegree(1, 0), BiDegree(1, 0)) == 0
    assert intersect(BiDegree(0, 1), BiDegree(0, 1)) == 0
    assert intersect(BiDegree(1, 0), BiDegree(0, 1)) == 1


def test_intersection_form_properties():
    rng = random.Random(20260819)
    for _ in range(300):
        x = BiDegree(rng.randint(-9, 9), rng.randint(-9, 9))
        y = BiDegree(rng.randint(-9, 9), rng.randint(-9, 9))
        z = BiDegree(rng.randint(-9, 9), rng.randint(-9, 9))
        assert intersect(x, y) == intersect(y, x)
        assert intersect(x + y, z) == intersect(x, z) + intersect(y, z)
        assert intersect(3 * x, y) == 3 * intersect(x, y)
        # the form is even, so squares are even
        assert self_intersection(x) % 2 == 0
        assert self_intersection(x) == intersect(x, x)
        # swapping both factors preserves the pairing
        assert intersect(x.swap(), y.swap()) == intersect(x, y)


def test_effective_equals_nef():
    assert is_effective(ZERO)
    assert is_effective(BiDegree(2, 0))
    assert not is_effective(BiDegree(2, -1))
    assert not is_effective(BiDegree(-1, -1))
    # on this surface the effective and nef cones agree, so one
    # predicate serves both: the closed non-negative quadrant
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert is_effective(BiDegree(a, b)) == (a >= 0 and b >= 0)


def test_nef_pairs_nonnegatively_with_nef():
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 5):
                for d in range(0, 5):
                    assert intersect(BiDegree(a, b), BiDegree(c, d)) >= 0
