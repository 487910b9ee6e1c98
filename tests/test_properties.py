"""Property tests of the line-bundle layer on random inputs.

Each identity is checked on random bidegrees, Chern data and K-classes:
Kuenneth against Riemann-Roch, Serre duality, the to_chern/from_chern
round trip and its parity error, the composition of twists, the signed
sum of line bundles, and the RankExpr parse/render round trip.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefq2 import MalformedClassError
from nefq2.catalog import RankExpr
from nefq2.cohomology import BundleNumerics, cohomology_q2, euler_char
from nefq2.ktheory import KClass, _line_sum, from_chern, line_class, to_chern, twist_chern
from nefq2.picard import ZERO, BiDegree

SETTINGS = settings(max_examples=150, deadline=None, database=None)

degrees = st.builds(BiDegree, st.integers(-40, 40), st.integers(-40, 40))
numerics = st.builds(BundleNumerics, st.integers(1, 30), degrees, st.integers(-500, 500))


@SETTINGS
@given(degrees)
def test_kuenneth_agrees_with_riemann_roch(d):
    assert cohomology_q2(d).chi == euler_char(BundleNumerics(1, d, 0))
    # the same line bundle reached as a twist of O
    assert cohomology_q2(d).chi == euler_char(BundleNumerics(1, ZERO, 0), d.a, d.b)


@SETTINGS
@given(degrees)
def test_serre_duality(d):
    # the canonical class is (-2, -2), so h^q(a, b) = h^{2-q}(-2-a, -2-b)
    h = cohomology_q2(d).as_tuple()
    dual = cohomology_q2(BiDegree(-2 - d.a, -2 - d.b)).as_tuple()
    assert h == dual[::-1]


@SETTINGS
@given(st.integers(1, 30), degrees, st.integers(-400, 400))
def test_chern_round_trip_of_an_honest_class(rank, c1, half_ch2x2):
    k = KClass(rank, c1, 2 * half_ch2x2)  # c1^2 = 2ab is even, so an even ch2x2 is honest
    assert from_chern(to_chern(k)) == k


@SETTINGS
@given(numerics)
def test_chern_round_trip_of_numerics(e):
    assert to_chern(from_chern(e)) == e


@SETTINGS
@given(st.integers(1, 30), degrees, st.integers(-400, 400))
def test_an_odd_parity_is_malformed(rank, c1, half_ch2x2):
    with pytest.raises(MalformedClassError, match="parity"):
        to_chern(KClass(rank, c1, 2 * half_ch2x2 + 1))


@SETTINGS
@given(numerics, degrees, degrees)
def test_twists_compose(e, x, y):
    assert twist_chern(twist_chern(e, x), y) == twist_chern(e, x + y)
    assert twist_chern(e, ZERO) == e
    # a twist undone by its inverse
    assert twist_chern(twist_chern(e, x), -x) == e


@SETTINGS
@given(st.lists(st.tuples(degrees, st.integers(-20, 20)), max_size=6))
def test_line_sum_is_the_term_by_term_sum(terms):
    # multiplicities of either sign, as in a display below min_rank or a module's image
    expected = KClass.zero()
    for d, m in terms:
        expected = expected + m * line_class(d)
    assert _line_sum(terms) == expected


@SETTINGS
@given(st.integers(-10**6, 10**6), st.integers(0, 1))
def test_rank_expr_parse_inverts_render(const, coef):
    m = RankExpr(const, coef)
    assert RankExpr.parse(m.render()) == m
