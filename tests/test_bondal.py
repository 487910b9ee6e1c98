"""Module-to-sheaf dictionary, reconstruction, and the degenerate page."""

from __future__ import annotations

import pytest

from nefq2 import BiDegree, BundleNumerics, HypothesisError, list_cases
from nefq2.bondal import (
    DICTIONARY,
    VARIANT_CURVE,
    VARIANT_STRUCTURE,
    ShiftedLineClass,
    e2_page,
    reconstruct,
    series_tensor_class,
)
from nefq2.catalog import RankExpr, certify
from nefq2.ktheory import KClass, TorsionKind, from_chern, line_class
from nefq2.quiver import simple_module

from whitney_oracle import case_chern


def test_dictionary_entries():
    assert DICTIONARY == (
        ShiftedLineClass(BiDegree(0, 0), 0),
        ShiftedLineClass(BiDegree(-1, 0), 1),
        ShiftedLineClass(BiDegree(0, -1), 1),
        ShiftedLineClass(BiDegree(-1, -1), 2),
    )


def test_series_tensor_class_on_simples():
    # each simple contributes its line class with the sign of its shift
    for i, entry in enumerate(DICTIONARY):
        sign = -1 if entry.shift % 2 else 1
        assert series_tensor_class(simple_module(i)) == sign * line_class(entry.degree)


def test_series_tensor_class_examples():
    k = series_tensor_class((0, 1, 1, 0))
    assert k == KClass(-2, BiDegree(1, 1), 0)
    assert series_tensor_class((0, 0, 0, 2)) == KClass(2, BiDegree(-2, -2), 4)
    assert series_tensor_class((0, 0, 0, 0)) == KClass.zero()


def test_series_tensor_class_rejects_bad_series():
    # a tuple + concatenates; the 8-tuple must not be truncated to 4
    with pytest.raises(ValueError):
        series_tensor_class(simple_module(1) + simple_module(2))
    with pytest.raises(ValueError):
        series_tensor_class((0, 1, 0))
    with pytest.raises(TypeError):
        series_tensor_class((True, 0, 0, 0))
    with pytest.raises(TypeError):
        series_tensor_class((1.0, 0, 0, 0))


def test_reconstruct_example():
    k = reconstruct(BundleNumerics(4, BiDegree(2, 2), 6))
    assert k == KClass(4, BiDegree(2, 2), -4)
    # same class as (r+2) structure sheaves minus two anti-diagonal lines
    assert k == 6 * line_class(BiDegree(0, 0)) - 2 * line_class(BiDegree(-1, -1))


def test_reconstruct_sweep():
    for c2 in (6, 7, 8):
        for r in range(2, 13):
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            assert reconstruct(e) == from_chern(e)
            assert reconstruct(e) == KClass(r, BiDegree(2, 2), 8 - 2 * c2)


def test_reconstruct_rank_is_symbolically_exact():
    # rank bookkeeping as affine expressions in r: hom contributes
    # (r + 8 - c2), the three ext summands contribute c2-6, c2-6, c2-4
    # with dictionary signs +1, +1, -1 after the shift twist, so the
    # total collapses to r for every c2
    for c2 in (6, 7, 8):
        total = (
            RankExpr(8 - c2, 1)
            + RankExpr(c2 - 6)
            + RankExpr(c2 - 6)
            - RankExpr(c2 - 4)
        )
        assert total == RankExpr(0, 1)
        assert total.render() == "r"
    # the catalog's reconstructible families, c2 = 6, 7 and 8: the certificate
    # proves the reconstruction check for every rank, and the oracle's
    # numerics rebuild with rank r near and far
    marked = [c for c in list_cases("main22") if c.bondal_reconstructible]
    assert sorted({c.expected_c2 for c in marked}) == [6, 7, 8]
    for case in marked:
        cert = certify(case)
        assert cert.proved_from(case.min_rank), case.id
        for r in (case.min_rank, case.min_rank + 1, 10**6):
            rank, c1, c2 = case_chern(case, r)
            assert reconstruct(BundleNumerics(rank, BiDegree(*c1), c2)).rank == r
            assert ("reconstruction", True) in [(n, p) for n, p, _ in cert.row(r).checks], (case.id, r)


def test_e2_entries_c2_6():
    page = e2_page(6, 4)
    assert page.entry(0, 0) == 6 * line_class(BiDegree(0, 0))
    assert page.entry(-2, 1) == 2 * line_class(BiDegree(-1, -1))
    assert page.entry(-1, 1) == KClass.zero()
    assert page.entries[(-2, 1)].label == "O(-1,-1)^2"
    assert (-1, 1) not in page.entries


def test_e2_entries_c2_7():
    page = e2_page(7, 3)
    assert page.entry(0, 0) == 4 * line_class(BiDegree(0, 0))
    assert page.entry(-2, 1) == line_class(BiDegree(-2, -2))
    assert page.entry(-1, 1) == KClass(0, BiDegree(0, 0), 2)
    assert page.entries[(-1, 1)].torsion.kind is TorsionKind.POINT_SHEAF


def test_e2_entries_c2_8_curve():
    page = e2_page(8, 5, variant=VARIANT_CURVE)
    assert page.entry(0, 0) == 5 * line_class(BiDegree(0, 0))
    assert page.entry(-2, 1) == KClass.zero()
    assert page.entry(-1, 1) == KClass(0, BiDegree(2, 2), -8)
    t = page.entries[(-1, 1)].torsion
    assert t.kind is TorsionKind.CURVE_TORSION
    assert t.support == BiDegree(2, 2)
    assert t.twist_degree == 0


def test_e2_entries_c2_8_structure():
    page = e2_page(8, 5, variant=VARIANT_STRUCTURE)
    assert page.entry(0, 0) == 5 * line_class(BiDegree(0, 0))
    assert page.entry(-2, 1) == line_class(BiDegree(-2, -2))
    assert page.entry(-1, 1) == line_class(BiDegree(0, 0))
    assert page.entries[(-1, 1)].torsion.kind is TorsionKind.STRUCTURE_SHEAF


def _all_pages(rank: int):
    yield e2_page(6, rank)
    yield e2_page(7, rank)
    yield e2_page(8, rank, variant=VARIANT_CURVE)
    yield e2_page(8, rank, variant=VARIANT_STRUCTURE)


def test_page_identities():
    for rank in range(1, 8):
        for page in _all_pages(rank):
            assert page.four_term_residual() == KClass.zero()
            e = BundleNumerics(rank, BiDegree(2, 2), page.c2)
            assert page.convergence_class() == from_chern(e)
            # the top corner survives to the third page minus one
            # incoming differential from (-2, 1)
            assert page.third_page_corner() == page.entry(0, 0) - page.entry(-2, 1)
            assert page.entry(0, 0).rank == rank + 8 - page.c2


def test_e2_page_hypothesis_errors():
    with pytest.raises(HypothesisError):
        e2_page(5, 3)
    with pytest.raises(HypothesisError):
        e2_page(9, 3)
    with pytest.raises(HypothesisError):
        e2_page(8, 3)
    with pytest.raises(HypothesisError):
        e2_page(8, 3, variant="bogus")
    with pytest.raises(HypothesisError):
        e2_page(6, 3, variant=VARIANT_CURVE)
    with pytest.raises(HypothesisError):
        e2_page(7, 0)
