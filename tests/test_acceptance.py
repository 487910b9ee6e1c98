"""Acceptance gate.

One test per release criterion, each ending in a single PASS line so the
verbose run reads as a checklist.  Expected values are recomputed here
from first principles (the Whitney oracle, direct Kunneth counts) before
being compared against the library.
"""

from __future__ import annotations

import random
import time

from nefq2 import BiDegree, BundleNumerics, euler_char, list_cases, verify_all
from nefq2.bondal import VARIANT_CURVE, VARIANT_STRUCTURE, e2_page, reconstruct
from nefq2.catalog import case_to_json, certify
from nefq2.cohomology import cohomology_q2
from nefq2.ktheory import (
    IdealResolution,
    KClass,
    from_chern,
    ideal_sheaf_class,
    line_class,
    ses_quotient_chern,
    sum_of_lines,
    to_chern,
    twist_chern,
)
from nefq2.quiver import build_algebra

from whitney_oracle import case_chern, quotient_chern

FAMILY_C2 = {
    "1": 0,
    "2": 2,
    "3": 2,
    "4": 3,
    "5": 4,
    "6": 4,
    "7": 5,
    "8": 6,
    "9": 6,
    "10": 8,
    "11": 7,
    "12": 8,
    "13": 8,
}


def _family(case) -> str:
    return case.id.removeprefix(case.theorem + "-").split("-")[0]


def test_criterion_1_c2_table_from_oracle():
    """Every c1=(2,2) family has the tabulated c2 at every admissible rank."""
    cases = list_cases("main22")
    # first reproduce the table by brute-force Chern expansion alone
    for case in cases:
        for r in range(case.min_rank, 11):
            rank, c1, c2 = case_chern(case, r)
            assert (rank, c1) == (r, (2, 2))
            assert c2 == FAMILY_C2[_family(case)], case.id
    # then require the library to agree, within the time budget
    start = time.perf_counter()
    reports = verify_all("main22", rank_max=10)
    elapsed = time.perf_counter() - start
    assert len(reports) == 213
    for report in reports:
        assert report.passed, report.case_id
        key = _family([c for c in cases if c.id == report.case_id][0])
        assert report.computed.c2 == FAMILY_C2[key]
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    print(f"\nACCEPT 1 PASS: c2 table exact for 23 displays x ranks to 10 ({elapsed:.3f}s)")


def test_criterion_2_c2_range_and_weak_fano():
    """c2 lies in 0..8 and only the three maximal families miss weak Fano."""
    cases = list_cases("main22")
    assert all(0 <= c.expected_c2 <= 8 for c in cases)
    not_weak_fano = {
        c.id for c in cases if not case_to_json(c)["flags"]["weak_fano"]
    }
    assert not_weak_fano == {"main22-10", "main22-12", "main22-13"}
    for c in cases:
        assert case_to_json(c)["flags"]["weak_fano"] == (c.expected_c2 < 8)
    print("\nACCEPT 2 PASS: 0 <= c2 <= 8, weak Fano fails exactly for cases 10, 12, 13")


def test_criterion_3_reconstruction_instances():
    """All 33 module-profile reconstructions return the exact K-class."""
    count = 0
    for c2 in (6, 7, 8):
        for r in range(2, 13):
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            assert reconstruct(e) == from_chern(e), (c2, r)
            count += 1
    assert count == 33
    print("\nACCEPT 3 PASS: 33/33 reconstructions exact (c2 in 6..8, rank 2..12)")


def test_criterion_4_page_identifications():
    """Second-page entries match the classification and stay K-exact."""
    checked = 0
    for rank in range(1, 11):
        pages = [
            (e2_page(6, rank), 2 * line_class(BiDegree(-1, -1)), KClass.zero()),
            (e2_page(7, rank), line_class(BiDegree(-2, -2)), KClass(0, BiDegree(0, 0), 2)),
            (
                e2_page(8, rank, variant=VARIANT_CURVE),
                KClass.zero(),
                KClass(0, BiDegree(2, 2), -8),
            ),
            (
                e2_page(8, rank, variant=VARIANT_STRUCTURE),
                line_class(BiDegree(-2, -2)),
                line_class(BiDegree(0, 0)),
            ),
        ]
        for page, corner, middle in pages:
            assert page.entry(-2, 1) == corner
            assert page.entry(-1, 1) == middle
            assert page.entry(0, 0) == (rank + 8 - page.c2) * line_class(BiDegree(0, 0))
            assert page.four_term_residual() == KClass.zero()
            e = BundleNumerics(rank, BiDegree(2, 2), page.c2)
            assert page.convergence_class() == from_chern(e)
            checked += 1
    print(f"\nACCEPT 4 PASS: {checked} pages identified with exact K-theory bookkeeping")


def test_criterion_5_algebra_dimension():
    """The tilting algebra is 16-dimensional with the triangular profile."""
    hom_dims = build_algebra()
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def h0(da: int, db: int) -> int:
        return (da + 1) * (db + 1) if da >= 0 and db >= 0 else 0

    recount = tuple(
        tuple(h0(a2 - a1, b2 - b1) for (a2, b2) in degrees)
        for (a1, b1) in degrees
    )
    assert hom_dims == recount
    assert sum(map(sum, hom_dims)) == 16
    assert sum(map(sum, recount)) == 16
    print("\nACCEPT 5 PASS: tilting algebra has dimension 16 with the triangular profile")


def test_criterion_6a_serre_duality_and_riemann_roch():
    """289 line-bundle degrees satisfy duality and chi = (a+1)(b+1)."""
    count = 0
    for a in range(-8, 9):
        for b in range(-8, 9):
            v = cohomology_q2(BiDegree(a, b))
            w = cohomology_q2(BiDegree(-2 - a, -2 - b))
            assert (v.h0, v.h1, v.h2) == (w.h2, w.h1, w.h0)
            assert v.chi == (a + 1) * (b + 1)
            assert v.chi == euler_char(BundleNumerics(1, BiDegree(a, b), 0))
            count += 1
    assert count == 289
    print("\nACCEPT 6a PASS: duality and Riemann-Roch agree at 289 degrees")


def test_criterion_6b_twist_round_trips():
    """500 random twist round trips restore the original numerics."""
    rng = random.Random(2262)
    for _ in range(500):
        e = BundleNumerics(
            rng.randint(1, 9),
            BiDegree(rng.randint(-6, 6), rng.randint(-6, 6)),
            rng.randint(-10, 10),
        )
        d = BiDegree(rng.randint(-4, 4), rng.randint(-4, 4))
        assert twist_chern(twist_chern(e, d), -d) == e
    print("\nACCEPT 6b PASS: 500 random twist round trips exact")


def test_criterion_6c_quotients_against_oracle():
    """200 random split quotients agree with brute-force Whitney division."""
    rng = random.Random(515)
    for _ in range(200):
        sub_terms = [
            ((rng.randint(-4, 4), rng.randint(-4, 4)), 1)
            for _ in range(rng.randint(1, 3))
        ]
        mid_terms = sub_terms + [
            ((rng.randint(-4, 4), rng.randint(-4, 4)), 1)
            for _ in range(rng.randint(1, 4))
        ]
        sub = to_chern(sum_of_lines([(BiDegree(*d), m) for d, m in sub_terms]))
        mid = to_chern(sum_of_lines([(BiDegree(*d), m) for d, m in mid_terms]))
        got = ses_quotient_chern(sub, mid)
        assert (got.rank, (got.c1.a, got.c1.b), got.c2) == quotient_chern(
            sub_terms, mid_terms
        )
    print("\nACCEPT 6c PASS: 200 random quotients match the Whitney oracle")


def test_criterion_7_ideal_sheaf_classes():
    """The two ideal-sheaf resolutions land on [O] - n[point]."""
    o = line_class(BiDegree(0, 0))
    point = KClass(0, BiDegree(0, 0), 2)
    assert ideal_sheaf_class(IdealResolution.TWO_POINTS_GENERAL) == o - 2 * point
    assert ideal_sheaf_class(IdealResolution.CI_11_21) == o - 3 * point
    assert ideal_sheaf_class(IdealResolution.EMPTY) == o
    print("\nACCEPT 7 PASS: ideal-sheaf classes equal [O] - 2[pt] and [O] - 3[pt]")


def test_criterion_8_quadric21_table():
    """The c1=(2,1) catalog realizes c2 = 0..4, verified at all ranks."""
    cases = list_cases("quadric21")
    assert [c.expected_c2 for c in cases] == [0, 1, 2, 3, 4]
    for case in cases:
        assert case.c1 == BiDegree(2, 1)
        for r in range(case.min_rank, 11):
            rank, c1, c2 = case_chern(case, r)
            assert (rank, c1, c2) == (r, (2, 1), case.expected_c2)
            assert certify(case).row(r).computed == BundleNumerics(r, BiDegree(2, 1), c2)
    reports = verify_all("quadric21", rank_max=10)
    assert reports and all(rep.passed for rep in reports)
    print("\nACCEPT 8 PASS: c1=(2,1) families realize c2 = 0,1,2,3,4 exactly")
