"""Property tests of the certificate against a direct evaluation.

For random displays, and for random affine classes whose ch2 parity may be
odd, ``Certificate.row(r)`` must equal verify_case's check formulas applied
to the class computed directly at r, errors included, and a case the
certificate proves from lo must pass at every rank of lo..lo+50, where
``Certificate.rows`` must give the same rows and count those that pass.
Flat displays, whose rows reuse the checks their certificate keeps, are
checked the same way at min_rank, min_rank + 1 and 10**6, with failing
kept checks among them.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from nefq2 import MalformedClassError, NefQ2Error, ReconstructionError, catalog, list_cases
from nefq2._value import replace
from nefq2.bondal import reconstruct
from nefq2.catalog import (
    CaseSpec,
    Certificate,
    RankExpr,
    _display_class,
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
    c2 may move with r.  A flat negative multiplicity, or a falling one such
    as O^(k-r), fails the multiplicities check at some ranks >= min_rank."""
    like_a_row = draw(st.booleans())
    sub, mid = (tuple(draw(fixed_terms if like_a_row else any_terms)) for _ in range(2))
    coker = draw(cokers)
    if like_a_row:
        if draw(st.booleans()):
            mid += ((ZERO, RankExpr(draw(st.integers(0, 40)), -1)),)  # negative from some rank on
        k = sum(m.const for _, m in sub) - sum(m.const for _, m in mid)
        k -= coker is not None and coker.kind is TorsionKind.STRUCTURE_SHEAF
        mid += ((ZERO, RankExpr(k, 1 - sum(m.coef for _, m in mid))),)
    case = CaseSpec(
        id="random",
        theorem="main22",
        c1=draw(degrees),
        sub_terms=sub,
        mid_terms=mid,
        coker=coker,
        expected_c2=draw(st.integers(-2, 12)),
        globally_generated=draw(st.sampled_from((True, False, None))),
        bondal_reconstructible=draw(st.booleans()),
    )
    if like_a_row:
        try:
            e = to_chern(_display_class(case, case.min_rank))
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
        if case.bondal_reconstructible:
            # the module profile exists only at c1 (2,2) with c2 in 6..8: rebuild
            # the class there, at its own rank, and fail the flag anywhere else
            if e.c1 == BiDegree(2, 2) and e.c2 in (6, 7, 8):
                reconstruct(e)
                checks.append(("reconstruction", True, "module profile rebuilds the K-class"))
            else:
                window = f"needs c1 (2,2) and 6 <= c2 <= 8, got c1 {e.c1} and c2 {e.c2}"
                checks.append(("reconstruction", False, f"the module profile {window}"))
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


def first_rank(case: CaseSpec) -> int:
    """min_rank by search: the first r >= 1 at which no multiplicity that
    rises with r is negative."""
    terms = case.sub_terms + case.mid_terms
    return next(r for r in itertools.count(1) if all(m.evaluate(r) >= 0 for _, m in terms if m.coef > 0))


@SETTINGS
@given(cases)
def test_min_rank_is_the_first_rank_found_by_search(case):
    assert case.min_rank == first_rank(case)


@pytest.mark.parametrize(
    "negative",
    (lambda m: m.coef == 0 and m.const < 0, lambda m: m.coef < 0),
    ids=("flat", "falling"),
)
def test_displays_fail_the_multiplicities_check_through_negative_terms(negative):
    # min_rank ignores flat and falling multiplicities, so displays() still
    # makes rows whose multiplicities check fails at or above min_rank
    def fails(case: CaseSpec) -> bool:
        if not any(negative(m) for _, m in case.sub_terms + case.mid_terms):
            return False
        rows = [evaluated(certify(case), r) for r in range(case.min_rank, case.min_rank + 51)]
        return any(len(row) == 8 and row.checks[5][:2] == ("multiplicities", False) for row in rows)

    case = find(displays(), fails, settings=settings(max_examples=2000, database=None))
    assert not certify(case).proved_from(case.min_rank)


@st.composite
def flat_displays(draw) -> CaseSpec:
    """A random flat display: fixed multiplicities of either sign, and
    O^(r+k) in the middle, k chosen so that the rank is r + shift, shift
    mostly 0.  Its c1 and c2 are now and then its own at min_rank."""
    signed_terms = st.lists(st.tuples(degrees, st.builds(RankExpr, st.integers(-2, 3))), max_size=3)
    sub, mid = (tuple(draw(signed_terms)) for _ in range(2))
    coker = draw(cokers)
    k = sum(m.const for _, m in sub) - sum(m.const for _, m in mid) + draw(st.sampled_from((0, 0, 0, 1, -1, 3)))
    k -= coker is not None and coker.kind is TorsionKind.STRUCTURE_SHEAF
    case = CaseSpec(
        id="flat",
        theorem="main22",
        c1=draw(degrees),
        sub_terms=sub,
        mid_terms=mid + ((ZERO, RankExpr(k, 1)),),
        coker=coker,
        expected_c2=draw(st.integers(-2, 12)),
        globally_generated=None,
        bondal_reconstructible=draw(st.booleans()),
    )
    if draw(st.booleans()):
        try:
            e = to_chern(_display_class(case, case.min_rank))
        except NefQ2Error:
            return case
        case = replace(case, c1=e.c1, expected_c2=e.c2)
    return case


def far_ranks(case: CaseSpec) -> tuple[int, ...]:
    return (case.min_rank, case.min_rank + 1, 10**6)


@SETTINGS
@given(flat_displays())
def test_a_flat_row_equals_the_direct_evaluation(case):
    cert = certify(case)
    assert cert.slope == KClass(1, ZERO, 0)
    for r in far_ranks(case):
        assert evaluated(cert, r) == direct(case, r, _display_class(case, r)), r
    # the kept checks exist exactly when the row at min_rank does not raise
    assert (vars(cert)["_fixed"] is None) == (len(evaluated(cert, case.min_rank)) == 2)


@pytest.mark.parametrize(
    "failing",
    (
        lambda cert, row: not row.checks[4].passed,
        lambda cert, row: cert.base.rank != 0,
        lambda cert, row: any(m.coef == 0 and m.const < 0 for _, m in cert.case.mid_terms + cert.case.sub_terms),
    ),
    ids=("negative_chi_at_lo", "base_rank_not_zero", "constant_negative_multiplicity"),
)
def test_flat_rows_whose_kept_checks_fail_equal_the_direct_evaluation(failing):
    def kept_and_failing(case: CaseSpec) -> bool:
        cert = certify(case)
        row = evaluated(cert, case.min_rank)
        return len(row) == 8 and vars(cert)["_fixed"] is not None and failing(cert, row)

    case = find(flat_displays(), kept_and_failing, settings=settings(max_examples=2000, database=None))
    cert = certify(case)
    assert not cert.proved_from(case.min_rank)
    for r in far_ranks(case):
        assert evaluated(cert, r) == direct(case, r, _display_class(case, r)), r


def test_a_replaced_reconstruct_is_seen_by_a_kept_certificate(monkeypatch):
    case = {c.id: c for c in list_cases("main22")}["main22-9"]
    cert = certify(case)
    before = cert.row(3)
    assert before.passed and vars(cert)["_fixed"] is not None

    def broken(e):
        raise ReconstructionError(f"no module profile for {e}")

    monkeypatch.setattr(catalog, "reconstruct", broken)
    after = certify(case).row(3)
    assert after.checks[:-1] == before.checks[:-1] and not after.passed
    name, passed, detail = after.checks[-1]
    assert (name, passed) == ("reconstruction", False) and detail.startswith("no module profile")
    monkeypatch.undo()
    assert cert.row(3) == before


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
    case = CaseSpec("odd", "main22", ZERO, (), (), None, -1, True, False)
    cert = Certificate(case, KClass(0, ZERO, 0), KClass(1, ZERO, 1))
    with pytest.raises(MalformedClassError, match="parity"):
        cert.row(1)
    assert cert.row(2).c2 == -1
    assert not cert.proved_from(2)
