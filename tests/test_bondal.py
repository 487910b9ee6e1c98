"""Module-to-sheaf dictionary, reconstruction, and the degenerate page."""

from __future__ import annotations

import copy
import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefq2 import BiDegree, BundleNumerics, HypothesisError, ReconstructionError, list_cases
from nefq2 import bondal
from nefq2._value import replace
from nefq2.bondal import VARIANT_CURVE, VARIANT_STRUCTURE, E2Page, e2_page, reconstruct
from nefq2.catalog import RankExpr
from nefq2.cohomology import ext1_module_profile
from nefq2.ktheory import POINT_CLASS, KClass, TorsionKind, from_chern, line_class
from nefq2.quiver import COLLECTION, hom_ext_series
from nefq2.verify import certify

from whitney_oracle import case_chern


def test_dictionary_entries():
    # each vertex simple goes to the dual of its collection member, signed by its shift's parity
    assert bondal._SIGNED_DEGREES == (
        (BiDegree(0, 0), 1),
        (BiDegree(-1, 0), -1),
        (BiDegree(0, -1), -1),
        (BiDegree(-1, -1), 1),
    )


def test_reconstruct_example():
    k = reconstruct(BundleNumerics(4, BiDegree(2, 2), 6))
    assert k == KClass(4, BiDegree(2, 2), -4)
    # same class as (r+2) structure sheaves minus two anti-diagonal lines
    assert k == 6 * line_class(BiDegree(0, 0)) - 2 * line_class(BiDegree(-1, -1))
    # a tuple is not a BundleNumerics: a TypeError, not an AttributeError
    with pytest.raises(TypeError, match=r"^Chern data must be a BundleNumerics, got "):
        reconstruct((2, (2, 2), 5))


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
        # (sign, const, coef) of each summand's rank const + coef*r
        summands = ((1, 8 - c2, 1), (1, c2 - 6, 0), (1, c2 - 6, 0), (-1, c2 - 4, 0))
        total = RankExpr(sum(s * c for s, c, _ in summands), sum(s * k for s, _, k in summands))
        assert total == RankExpr(0, 1)
        assert total.render() == "r"
    # the catalog's reconstructible families, c2 = 6, 7 and 8: the certificate
    # proves the reconstruction check for every rank, and the oracle's
    # numerics rebuild with rank r near and far
    marked = [c for c in list_cases("main22") if c.bondal_reconstructible]
    assert sorted({c.expected_c2 for c in marked}) == [6, 7, 8]
    for case in marked:
        cert = certify(case)
        assert cert.proved_from(case.display.min_rank), case.id
        for r in (case.display.min_rank, case.display.min_rank + 1, 10**6):
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


def test_page_fields_follow_the_type_rule():
    assert E2Page(6, 3, None) == e2_page(6, 3)
    # each field that is not exactly its type is named, before any hypothesis
    for args, message in (
        ((6.0, 3, None), "E2Page.c2 must be int, got 6.0"),
        ((6, True, None), "E2Page.rank must be int, got True"),
        ((8, 3, 5), "E2Page.variant must be str or None, got 5"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            E2Page(*args)
    with pytest.raises(TypeError, match=r"^E2Page\.variant must be str or None, got 5$"):
        e2_page(8, 3, 5)


def test_page_positions_must_be_integers():
    # entry(0.0, 0) would otherwise be the (0, 0) corner and entry("a", 1) the zero class
    page = e2_page(7, 5)
    for bad in (0.0, True, "a", None):
        for p, q in ((bad, 0), (-1, bad)):
            with pytest.raises(TypeError, match=f"^page positions must be integers, got {re.escape(repr(p))} and "):
                page.entry(p, q)
    assert page.entry(0, 0) == 6 * line_class(BiDegree(0, 0)) and page.entry(-2, 0) == KClass.zero()


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


def test_reconstruct_rejects_other_determinants():
    # an input outside the hypotheses, not a failed internal identity
    for c1 in (BiDegree(2, 1), BiDegree(3, 3), BiDegree(1, 2)):
        with pytest.raises(HypothesisError, match="determinant"):
            reconstruct(BundleNumerics(3, c1, 6))


def test_e2_page_hypothesis_errors():
    # the page type owns the hypotheses: e2_page, the constructor and
    # replace refuse each input with the same message
    base = e2_page(6, 3)
    bad = ((5, 3, None), (9, 3, None), (8, 3, None), (8, 3, "bogus"), (6, 3, VARIANT_CURVE), (7, 0, None))
    for c2, rank, variant in bad:
        with pytest.raises(HypothesisError) as exc:
            e2_page(c2, rank, variant)
        same = f"^{re.escape(str(exc.value))}$"
        with pytest.raises(HypothesisError, match=same):
            E2Page(c2, rank, variant)
        with pytest.raises(HypothesisError, match=same):
            replace(base, c2=c2, rank=rank, variant=variant)


def test_a_page_cannot_contradict_its_fields():
    # the entries follow a replaced rank, no mapping can be passed in, and
    # a replaced c2 is checked against the hypotheses
    page = replace(e2_page(6, 3), rank=50)
    assert page.entry(0, 0) == 52 * line_class(BiDegree(0, 0))
    assert page.convergence_class() == from_chern(BundleNumerics(50, BiDegree(2, 2), 6))
    assert page.entries == e2_page(6, 50).entries
    with pytest.raises(TypeError):
        E2Page(6, 3, None, e2_page(7, 3).entries)
    with pytest.raises(HypothesisError, match=r"got c2=9$"):
        replace(e2_page(6, 3), c2=9)


@pytest.mark.parametrize(
    ("args", "message"),
    [((True, 3), "c2 must be an integer, got True"), ((7.0, 3), "c2 must be an integer, got 7.0"),
     ((6, 2.5), "rank must be an integer, got 2.5")],
    ids=["bool_c2", "float_c2", "float_rank"],
)
def test_e2_page_type_rule(args, message):
    # the argument that is not exactly an int is named, before any hypothesis
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        e2_page(*args)


@pytest.mark.parametrize("rank", [1, 5])
def test_module_profile_enforces_the_nef_bound(rank):
    # a nef bundle with determinant (2, 2) has c2 <= c1^2 = 8; c2 = 9 once
    # passed at every rank with r + 8 - c2 >= 0
    e = BundleNumerics(rank, BiDegree(2, 2), 9)
    for call in (lambda: ext1_module_profile(e), lambda: hom_ext_series(rank, 9), lambda: reconstruct(e)):
        with pytest.raises(HypothesisError, match=r"6 <= c2 <= 8.*nef bound.*got c2=9$"):
            call()
    assert hom_ext_series(rank, 8) == ((rank, 0, 0, 0), (0, 2, 2, 4))


def _line(a: int, b: int, mult: int = 1) -> KClass:
    """mult * [O(a, b)], written out: rank mult, c1 mult*(a, b), twice ch2 mult*2ab."""
    return KClass(mult, BiDegree(mult * a, mult * b), mult * 2 * a * b)


#: (c2, variant) -> the q = 1 entries {(p, q): (class, label)}, by the formulas:
#: 2[O(-1,-1)], [O(-2,-2)], the point class, the class [O] - [O(-2,-2)] of a
#: curve of bidegree (2, 2) and the structure sheaf's class [O].
Q1_PAGE = {
    (6, None): {(-2, 1): (_line(-1, -1, 2), "O(-1,-1)^2")},
    (7, None): {(-2, 1): (_line(-2, -2), "O(-2,-2)"), (-1, 1): (KClass(0, BiDegree(0, 0), 2), "k(p)")},
    (8, VARIANT_CURVE): {(-1, 1): (KClass(0, BiDegree(2, 2), -8), "O_C(0) on a (2,2) curve")},
    (8, VARIANT_STRUCTURE): {(-2, 1): (_line(-2, -2), "O(-2,-2)"), (-1, 1): (_line(0, 0), "O")},
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 10**6), st.sampled_from(sorted(Q1_PAGE, key=str)))
def test_pages_and_reconstruction_match_the_formulas(rank, key):
    c2, variant = key
    page = e2_page(c2, rank, variant)
    n0 = rank + 8 - c2
    expected = {(0, 0): (_line(0, 0, n0), "O" if n0 == 1 else f"O^{n0}"), **Q1_PAGE[key]}
    assert {pos: (e.kclass, e.label) for pos, e in page.entries.items()} == expected
    assert (page.c2, page.rank, page.variant) == (c2, rank, variant)
    assert page.four_term_residual() == KClass.zero()
    e = BundleNumerics(rank, BiDegree(2, 2), c2)
    assert page.convergence_class() == from_chern(e) == KClass(rank, BiDegree(2, 2), 8 - 2 * c2)
    hom, ext1 = hom_ext_series(rank, c2)
    # additive over the composition series: each simple's line class, signed by its shift
    signed = ((-1) ** (g.a + g.b) * (h - x) * line_class(-g) for g, h, x in zip(COLLECTION, hom, ext1))
    assert reconstruct(e) == sum(signed, KClass.zero()) == from_chern(e)


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(sorted(Q1_PAGE, key=str)), st.integers(1, 10**12), st.integers(1, 10**12))
def test_a_page_is_a_value(key, rank, other):
    # a page is its (c2, rank, variant): however it is built or copied, it
    # equals and hashes as the page e2_page builds, and so do its entries
    c2, variant = key
    for r, s in ((1, other), (rank, 1), (rank, other)):
        page = e2_page(c2, r, variant)
        built = E2Page(c2, r, variant)
        assert page == built and hash(page) == hash(built)
        for twin in (copy.copy(page), copy.deepcopy(page), pickle.loads(pickle.dumps(page))):
            assert twin == page and hash(twin) == hash(page) and twin.entries == page.entries
        assert replace(page, rank=s) == e2_page(c2, s, variant)
        assert replace(page, rank=s).entries == e2_page(c2, s, variant).entries


def test_every_call_checks_its_identities(monkeypatch):
    pages = [(6, None), (7, None), (8, VARIANT_CURVE), (8, VARIANT_STRUCTURE)]
    # each call computes each identity's two sides once: one line sum and one
    # from_chern a page, and one profile, line sum and from_chern a rebuild
    calls = Counter()

    def counted(name):
        fn = getattr(bondal, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    with monkeypatch.context() as patch:
        for name in ("_line_sum", "from_chern", "hom_ext_series"):
            patch.setattr(bondal, name, counted(name))
        for c2, variant in pages:
            e2_page(c2, 4, variant)
            assert calls == {"_line_sum": 1, "from_chern": 1}, (c2, variant)
            calls.clear()
            reconstruct(BundleNumerics(4, BiDegree(2, 2), c2))
            assert calls == {"hom_ext_series": 1, "_line_sum": 1, "from_chern": 1}, c2
            calls.clear()
    # a page's entries cannot be reassigned, and the rank-free entries it
    # shares with every other page cannot be changed through it
    page = e2_page(7, 4)
    with pytest.raises(AttributeError):
        page.entries = {}
    with pytest.raises(TypeError):
        page.entries[(-1, 1)] = page.entries[(0, 0)]
    with pytest.raises(AttributeError):
        page.entries[(-2, 1)].kclass = KClass.zero()
    assert {pos: (e.kclass, e.label) for pos, e in e2_page(7, 5).entries.items()} == {
        (0, 0): (_line(0, 0, 6), "O^6"), **Q1_PAGE[7, None]
    }
    # a from_chern one point off must fail each call: no verdict is cached
    monkeypatch.setattr(bondal, "from_chern", lambda e: from_chern(e) + POINT_CLASS)
    for c2, variant in pages:
        e = BundleNumerics(4, BiDegree(2, 2), c2)
        for _ in range(2):
            with pytest.raises(ReconstructionError, match=rf"^page c2={c2} converges to ") as exc:
                e2_page(c2, 4, variant)
            assert str(exc.value).endswith(f" converges to {from_chern(e)}, expected {from_chern(e) + POINT_CLASS}")
            with pytest.raises(ReconstructionError, match="^module profile rebuilt "):
                reconstruct(e)
    # and a line sum one point off breaks the four-term identity of every page
    line_sum = bondal._line_sum
    monkeypatch.setattr(bondal, "_line_sum", lambda terms: line_sum(terms) + POINT_CLASS)
    for c2, variant in pages:
        for _ in range(2):
            with pytest.raises(ReconstructionError, match=rf"^four-term identity violated on page c2={c2}: ") as exc:
                e2_page(c2, 4, variant)
            assert str(exc.value).endswith(": residual (rank 0, c1 (0,0), 2ch2 2)")
