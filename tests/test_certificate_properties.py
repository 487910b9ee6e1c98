"""Property tests of the certificate against a direct evaluation.

For random displays, and for random affine classes whose ch2 parity may be
odd, ``Certificate.row(r)`` must equal verify_case's check formulas applied
to the class computed directly at r, errors included.  A case the
certificate proves from lo, by the coefficients of its checks' polynomials
in r, must pass at every rank of lo..lo+50, where ``Certificate.rows`` must
give the same rows and count those that pass; and it must be proved
exactly when the rule read from rows holds: the slope is [O], no
multiplicity falls with r, and the row at lo passes.  Flat displays, whose
certificate keeps its row at min_rank when its polynomials hold from
there, are checked the same way at min_rank, min_rank + 1 and 10**6,
failing ones among them.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from nefq2 import MalformedClassError, NefQ2Error, ReconstructionError, list_cases, verify
from nefq2._value import replace
from nefq2.bondal import reconstruct
from nefq2.catalog import CaseSpec, Display, RankExpr
from nefq2.cohomology import _chi, euler_char, is_weak_fano
from nefq2.ktheory import KClass, TorsionDescriptor, TorsionKind, to_chern
from nefq2.picard import ZERO, BiDegree, intersect
from nefq2.verify import Certificate, case_kclass, certify

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
def row_displays(draw) -> Display:
    """A display built like the tables' rows: fixed multiplicities, maybe an
    O^(k-r), and O^(r+k) or O^(2r+k) in the middle so that the rank is r."""
    sub, mid = (tuple(draw(fixed_terms)) for _ in range(2))
    coker = draw(cokers)
    if draw(st.booleans()):
        mid += ((ZERO, RankExpr(draw(st.integers(0, 40)), -1)),)  # negative from some rank on
    k = sum(m.const for _, m in sub) - sum(m.const for _, m in mid)
    k -= coker is not None and coker.kind is TorsionKind.STRUCTURE_SHEAF
    return Display(sub, mid + ((ZERO, RankExpr(k, 1 - sum(m.coef for _, m in mid))),), coker)


#: A display with any multiplicities, so that c1 and c2 may move with r.
any_displays = st.builds(Display, any_terms.map(tuple), any_terms.map(tuple), cokers)

#: A random display, half of them built like the tables' rows.
displays = st.one_of(row_displays(), any_displays)


@st.composite
def claimed(draw, displays, own) -> CaseSpec:
    """A case of a drawn display that claims a random c1, c2 and flags, or,
    when ``own`` draws True, the display's own c1 and c2 at min_rank, where
    it has them."""
    display = draw(displays)
    gg = draw(st.sampled_from((True, False, None)))
    case = CaseSpec("random", "main22", draw(degrees), display, draw(st.integers(-2, 12)), gg, draw(st.booleans()))
    if draw(own):
        try:
            e = to_chern(display.kclass(display.min_rank))
        except NefQ2Error:
            return case
        case = replace(case, c1=e.c1, expected_c2=e.c2)
    return case


#: Cases of random displays: of one built like a row with its own c1 and
#: c2, so that many of them pass, or of any display with random claims.  A
#: flat negative multiplicity, or a falling one such as O^(k-r), fails the
#: multiplicities check at some ranks >= min_rank.
display_cases = st.one_of(claimed(row_displays(), st.just(True)), claimed(any_displays, st.just(False)))

#: Random displays and the catalog's own rows, now and then with a wrong c2.
cases = st.one_of(
    display_cases,
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
        if r < case.display.min_rank:
            raise ValueError(f"{case.id} needs rank >= {case.display.min_rank}, got {r}")
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
                all(m.evaluate(r) >= 0 for _, m in case.display.sub + case.display.mid),
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


def old_rule(cert: Certificate, lo: int) -> bool:
    """Whether the slope is [O], no multiplicity falls with r and the row
    at lo passes: a proof from lo read from rows, not from polynomials."""
    rising = all(m.coef >= 0 for _, m in cert.case.display.sub + cert.case.display.mid)
    return cert.slope == KClass(1, ZERO, 0) and rising and passes(evaluated(cert, lo))


def check_proof(cert: Certificate, lo: int) -> None:
    """A proof from lo holds on lo..lo+50, where rows() equals row(), counts
    the rows that pass, hands over k = chi at rank 0 exactly when proved,
    and raises the first error row() raises."""
    rows = [evaluated(cert, r) for r in range(lo, lo + 51)]
    try:
        passed, made, k = cert.rows(lo, lo + 50)
    except (NefQ2Error, ValueError) as exc:
        assert (type(exc), str(exc)) == next(row for row in rows if len(row) == 2)
        return
    assert list(made) == rows
    assert passed == sum(passes(row) for row in rows)
    assert passed == 51 or not cert.proved_from(lo)
    assert k == (_chi(0, rows[0].c1, rows[0].c2) if cert.proved_from(lo) else None)


@SETTINGS
@given(cases, st.integers(0, 60), st.integers(0, 3))
def test_row_equals_the_direct_evaluation_of_a_display(case, above, offset):
    cert = certify(case)
    r = case.display.min_rank + above - (offset == 3)  # now and then one below min_rank
    assert case_kclass(case, r) == case.display.kclass(r)
    assert evaluated(cert, r) == direct(case, r, case.display.kclass(r))
    lo = case.display.min_rank + offset
    assert cert.proved_from(lo) == old_rule(cert, lo)
    check_proof(cert, lo)


def first_rank(display: Display) -> int:
    """min_rank by search: the first r >= 1 at which no multiplicity that
    rises with r is negative."""
    terms = display.sub + display.mid
    return next(r for r in itertools.count(1) if all(m.evaluate(r) >= 0 for _, m in terms if m.coef > 0))


@SETTINGS
@given(displays)
def test_min_rank_is_the_first_rank_found_by_search(display):
    assert display.min_rank == first_rank(display)


@pytest.mark.parametrize(
    "negative",
    (lambda m: m.coef == 0 and m.const < 0, lambda m: m.coef < 0),
    ids=("flat", "falling"),
)
def test_displays_fail_the_multiplicities_check_through_negative_terms(negative):
    # min_rank ignores flat and falling multiplicities, so display_cases still
    # makes rows whose multiplicities check fails at or above min_rank
    def fails(case: CaseSpec) -> bool:
        if not any(negative(m) for _, m in case.display.sub + case.display.mid):
            return False
        rows = [evaluated(certify(case), r) for r in range(case.display.min_rank, case.display.min_rank + 51)]
        return any(len(row) == 8 and row.checks[5][:2] == ("multiplicities", False) for row in rows)

    case = find(display_cases, fails, settings=settings(max_examples=2000, database=None))
    assert not certify(case).proved_from(case.display.min_rank)


@st.composite
def flat_displays(draw) -> Display:
    """A random flat display: fixed multiplicities of either sign, and
    O^(r+k) in the middle, k chosen so that the rank is r + shift, shift
    mostly 0."""
    signed_terms = st.lists(st.tuples(degrees, st.builds(RankExpr, st.integers(-2, 3))), max_size=3)
    sub, mid = (tuple(draw(signed_terms)) for _ in range(2))
    coker = draw(cokers)
    k = sum(m.const for _, m in sub) - sum(m.const for _, m in mid) + draw(st.sampled_from((0, 0, 0, 1, -1, 3)))
    k -= coker is not None and coker.kind is TorsionKind.STRUCTURE_SHEAF
    return Display(sub, mid + ((ZERO, RankExpr(k, 1)),), coker)


#: Cases of flat displays, now and then with the display's own c1 and c2.
flat_cases = claimed(flat_displays(), st.booleans())


def far_ranks(case: CaseSpec) -> tuple[int, ...]:
    return (case.display.min_rank, case.display.min_rank + 1, 10**6)


@SETTINGS
@given(flat_cases)
def test_a_flat_row_equals_the_direct_evaluation(case):
    cert = certify(case)
    assert cert.slope == KClass(1, ZERO, 0)
    for r in far_ranks(case):
        assert evaluated(cert, r) == direct(case, r, case.display.kclass(r)), r
    # the kept row exists exactly when every check but the reconstruction
    # check passes at min_rank
    row = evaluated(cert, case.display.min_rank)
    holds = len(row) == 8 and all(passed for name, passed, _ in row.checks if name != "reconstruction")
    assert (vars(cert)["_kept"] is not None) == holds


@pytest.mark.parametrize(
    "failing",
    (
        lambda cert, row: not row.checks[4].passed,
        lambda cert, row: cert.base.rank != 0,
        lambda cert, row: any(m.coef == 0 and m.const < 0 for _, m in cert.case.display.mid + cert.case.display.sub),
    ),
    ids=("negative_chi_at_lo", "base_rank_not_zero", "constant_negative_multiplicity"),
)
def test_flat_rows_that_fail_are_not_kept_and_equal_the_direct_evaluation(failing):
    def failing_row(case: CaseSpec) -> bool:
        cert = certify(case)
        row = evaluated(cert, case.display.min_rank)
        return len(row) == 8 and failing(cert, row)

    case = find(flat_cases, failing_row, settings=settings(max_examples=2000, database=None))
    cert = certify(case)
    assert vars(cert)["_kept"] is None
    assert not cert.proved_from(case.display.min_rank)
    for r in far_ranks(case):
        assert evaluated(cert, r) == direct(case, r, case.display.kclass(r)), r


def test_a_replaced_reconstruct_is_seen_by_a_kept_certificate(monkeypatch):
    case = {c.id: c for c in list_cases("main22")}["main22-9"]
    cert = certify(case)
    before = cert.row(3)
    assert before.passed and vars(cert)["_kept"] is not None

    def broken(e):
        raise ReconstructionError(f"no module profile for {e}")

    monkeypatch.setattr(verify, "reconstruct", broken)
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
    r = case.display.min_rank + above
    assert evaluated(cert, r) == direct(case, r, base + r * slope)
    lo = case.display.min_rank + offset
    assert cert.proved_from(lo) == old_rule(cert, lo)
    check_proof(cert, lo)


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
    lo = case.display.min_rank + offset
    s = 0 if at_zero else lo
    anchor = KClass(s, case.c1, intersect(case.c1, case.c1) - 2 * case.expected_c2)
    cert = Certificate(case, anchor - s * slope, slope)
    r = lo + at_zero
    assert evaluated(cert, r) == direct(case, r, cert.base + r * slope)
    assert cert.proved_from(lo) == old_rule(cert, lo)
    check_proof(cert, lo)


def test_odd_parity_raises_the_error_of_to_chern():
    case = CaseSpec("odd", "main22", ZERO, Display((), ()), -1, True, False)
    cert = Certificate(case, KClass(0, ZERO, 0), KClass(1, ZERO, 1))
    with pytest.raises(MalformedClassError, match="parity"):
        cert.row(1)
    assert cert.row(2).c2 == -1
    assert not cert.proved_from(2)


@pytest.mark.parametrize("wrong", (0, 1), ids=("proved", "failing"))
def test_proved_from_raises_the_errors_of_row(wrong):
    case = list_cases("main22")[0]
    cert = certify(replace(case, expected_c2=case.expected_c2 + wrong))
    assert cert.proved_from(case.display.min_rank) == (not wrong)
    for lo, error in ((True, TypeError), (1.0, TypeError), (case.display.min_rank - 1, ValueError)):
        with pytest.raises(error) as proving:
            cert.proved_from(lo)
        with pytest.raises(error) as evaluating:
            cert.row(lo)
        assert str(proving.value) == str(evaluating.value)
