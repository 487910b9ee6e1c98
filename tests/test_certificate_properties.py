"""Property tests of the certificate against a direct evaluation.

For random displays, and for random affine classes whose ch2 parity may be
odd, ``Certificate.row(r)`` must equal verify_case's check formulas applied
to the class computed directly at r, errors included, and a case the
certificate proves from lo must pass at every rank of lo..lo+50, where
``Certificate.rows`` must give the same rows and count those that pass.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefq2 import MalformedClassError, NefQ2Error, list_cases
from nefq2._value import replace
from nefq2.bondal import reconstruct
from nefq2.catalog import (
    CaseSpec,
    Certificate,
    RankExpr,
    _display_class,
    _reconstruction_check,
    case_kclass,
    certify,
)
from nefq2.cohomology import euler_char, is_weak_fano
from nefq2.ktheory import KClass, TorsionDescriptor, TorsionKind, to_chern
from nefq2.picard import ZERO, BiDegree, intersect

SETTINGS = settings(max_examples=150, deadline=None, database=None)

degrees = st.builds(BiDegree, st.integers(-3, 3), st.integers(-3, 3))
fixed_terms = st.lists(st.tuples(degrees, st.builds(RankExpr, st.integers(0, 3))), max_size=3)
any_terms = st.lists(
    st.tuples(degrees, st.builds(RankExpr, st.integers(-3, 4), st.integers(-1, 2))), max_size=4
)
cokers = st.sampled_from(
    (
        None,
        TorsionDescriptor(TorsionKind.POINT_SHEAF),
        TorsionDescriptor(TorsionKind.STRUCTURE_SHEAF),
        TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(2, 2)),
        TorsionDescriptor(TorsionKind.CURVE_TORSION, BiDegree(1, 0), 1),
    )
)


@st.composite
def displays(draw) -> CaseSpec:
    """A random display.  Half of them are built like the tables' rows: fixed
    multiplicities, maybe an O^(k-r), and O^(r+k) or O^(2r+k) in the middle
    so that the rank is r, with c1 and c2 the display's own at min_rank, so
    that many of them pass.  The others have any multiplicities, so c1 and
    c2 may move with r."""
    like_a_row = draw(st.booleans())
    sub, mid = (tuple(draw(fixed_terms if like_a_row else any_terms)) for _ in range(2))
    coker = draw(cokers)
    min_rank = draw(st.integers(1, 5))
    if like_a_row:
        if draw(st.booleans()):
            mid += ((ZERO, RankExpr(draw(st.integers(0, 40)), -1)),)  # negative from some rank on
        k = sum(m.const for _, m in sub) - sum(m.const for _, m in mid)
        k -= coker is not None and coker.kind is TorsionKind.STRUCTURE_SHEAF
        mid += ((ZERO, RankExpr(k, 1 - sum(m.coef for _, m in mid))),)
        terms = sub + mid
        min_rank = next((r for r in range(1, 40) if all(m.evaluate(r) >= 0 for _, m in terms)), min_rank)
    case = CaseSpec(
        id="random",
        theorem="main22",
        c1=draw(degrees),
        sub_terms=sub,
        mid_terms=mid,
        coker=coker,
        min_rank=min_rank,
        expected_c2=draw(st.integers(-2, 12)),
        globally_generated=draw(st.sampled_from((True, False, None))),
        bondal_reconstructible=draw(st.booleans()),
    )
    if like_a_row:
        try:
            e = to_chern(_display_class(case, min_rank))
        except NefQ2Error:
            return case
        case = replace(case, c1=e.c1, expected_c2=e.c2)
    return case


#: Random displays and the catalog's own rows, now and then with a wrong c2.
cases = st.one_of(
    displays(),
    st.builds(
        lambda case, wrong: replace(case, expected_c2=case.expected_c2 + wrong),
        st.sampled_from(list_cases("main22") + list_cases("quadric21")),
        st.sampled_from((0, 0, 1, -7)),
    ),
)


def direct(case: CaseSpec, r: int, k: KClass):
    """verify_case's report as the formulas read before the certificate, on
    the class k of the display at rank r: the case, r, the display's rank, c1
    and c2, whether it is weak Fano, the checks and whether all of them pass;
    an error as (type, message)."""
    try:
        if r < case.min_rank:
            raise ValueError(f"{case.id} needs rank >= {case.min_rank}, got {r}")
        e = to_chern(k)
        c1sq = intersect(e.c1, e.c1)
        chi = euler_char(e)
        checks = [
            ("rank", e.rank == r, f"display rank {e.rank}, requested {r}"),
            ("c1", e.c1 == case.c1, f"display c1 {e.c1}, table c1 {case.c1}"),
            ("c2", e.c2 == case.expected_c2, f"computed c2 {e.c2}, expected {case.expected_c2}"),
            ("c2_bound", 0 <= e.c2 <= c1sq, f"c2 {e.c2} against nef bound 0..{c1sq}"),
            ("chi_nonnegative", chi >= 0, f"chi = {chi} must be >= 0 for a nef family"),
            (
                "multiplicities",
                all(m.evaluate(r) >= 0 for _, m in case.sub_terms + case.mid_terms),
                "every display multiplicity evaluates >= 0",
            ),
        ]
        if case.bondal_reconstructible and e.c2 >= 6 and e.c1 == BiDegree(2, 2):
            checks.append(_reconstruction_check(reconstruct, e))
        return (case, r, e.rank, e.c1, e.c2, is_weak_fano(e), tuple(checks), all(ok for _, ok, _ in checks))
    except (NefQ2Error, ValueError) as exc:
        return (type(exc), str(exc))


def evaluated(cert: Certificate, r: int):
    try:
        return cert.row(r)
    except (NefQ2Error, ValueError) as exc:
        return (type(exc), str(exc))


def passes(outcome) -> bool:
    return len(outcome) == 8 and all(passed for _, passed, _ in outcome[6])


def check_proof(cert: Certificate, lo: int) -> None:
    """A proof from lo holds on lo..lo+50, where rows() equals row(), counts
    the rows that pass and raises the first error row() raises."""
    rows = [evaluated(cert, r) for r in range(lo, lo + 51)]
    try:
        passed, made = cert.rows(lo, lo + 50)
    except (NefQ2Error, ValueError) as exc:
        assert (type(exc), str(exc)) == next(row for row in rows if len(row) == 2)
        return
    assert list(made) == rows
    assert passed == sum(passes(row) for row in rows)
    assert passed == 51 or not cert.proved_from(lo)


@SETTINGS
@given(cases, st.integers(0, 60), st.integers(0, 3))
def test_row_equals_the_direct_evaluation_of_a_display(case, above, offset):
    cert = certify(case)
    r = case.min_rank + above - (offset == 3)  # now and then one below min_rank
    assert case_kclass(case, r) == _display_class(case, r)
    assert evaluated(cert, r) == direct(case, r, _display_class(case, r))
    check_proof(cert, case.min_rank + offset)


kclasses = st.builds(KClass, st.integers(-4, 6), degrees, st.integers(-9, 9))


@SETTINGS
@given(cases, kclasses, kclasses, st.integers(0, 60), st.integers(0, 3))
def test_row_equals_the_direct_evaluation_of_an_affine_class(case, base, slope, above, offset):
    # any (base, slope), so nonzero c1 slopes and odd ch2 parities occur
    cert = Certificate(case, base, slope)
    r = case.min_rank + above
    assert evaluated(cert, r) == direct(case, r, base + r * slope)
    check_proof(cert, case.min_rank + offset)


#: Slopes at and near [O], the slope of every shipped display.
near_slopes = st.builds(
    KClass,
    st.sampled_from((1, 1, 1, 0, 2)),
    st.sampled_from((ZERO, ZERO, ZERO, BiDegree(1, 0), BiDegree(0, -1))),
    st.sampled_from((0, 0, 0, 1, -1, 2)),
)


@SETTINGS
@given(cases, near_slopes, st.integers(0, 3), st.booleans())
def test_a_class_right_at_one_rank_is_proved_exactly_for_the_slope_of_O(case, slope, offset, at_zero):
    # the class with the table's c1 and c2 and rank s at s = lo or s = 0,
    # moving with the slope
    lo = case.min_rank + offset
    s = 0 if at_zero else lo
    anchor = KClass(s, case.c1, intersect(case.c1, case.c1) - 2 * case.expected_c2)
    cert = Certificate(case, anchor - s * slope, slope)
    r = lo + at_zero
    assert evaluated(cert, r) == direct(case, r, cert.base + r * slope)
    rising = all(m.coef >= 0 for _, m in case.sub_terms + case.mid_terms)
    assert cert.proved_from(lo) == (slope == KClass(1, ZERO, 0) and rising and passes(evaluated(cert, lo)))
    check_proof(cert, lo)


def test_odd_parity_raises_the_error_of_to_chern():
    case = CaseSpec("odd", "main22", ZERO, (), (), None, 1, -1, True, False)
    cert = Certificate(case, KClass(0, ZERO, 0), KClass(1, ZERO, 1))
    with pytest.raises(MalformedClassError, match="parity"):
        cert.row(1)
    assert cert.row(2).c2 == -1
    assert not cert.proved_from(2)
