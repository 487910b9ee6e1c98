"""Catalog displays, rank expressions, verification reports, JSON shape."""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter

import pytest

from nefq2 import BiDegree, HypothesisError, ReconstructionError, list_cases, verify_all
from nefq2 import catalog, verify
from nefq2._value import replace
from nefq2.catalog import CaseSpec, Display, RankExpr, case_to_json
from nefq2.cli import _case_line
from nefq2.cohomology import euler_char, is_weak_fano
from nefq2.ktheory import KClass, TorsionDescriptor, TorsionKind, to_chern
from nefq2.picard import ZERO, intersect
from nefq2.verify import CheckResult, VerificationReport, case_kclass, certify, verify_case

from whitney_oracle import case_chern

EXPECTED_FAMILY_C2 = {
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

MAIN22_IDS = [
    "main22-1",
    "main22-2",
    "main22-2-swap",
    "main22-3",
    "main22-4",
    "main22-5",
    "main22-6",
    "main22-6-1",
    "main22-6-1-swap",
    "main22-6-1-1",
    "main22-6-1-2",
    "main22-6-1-2-swap",
    "main22-6-2",
    "main22-6-3",
    "main22-6-3-swap",
    "main22-7",
    "main22-8",
    "main22-8-swap",
    "main22-9",
    "main22-10",
    "main22-11",
    "main22-12",
    "main22-13",
]


def _family(case: CaseSpec) -> str:
    return case.id.removeprefix(case.theorem + "-").split("-")[0]


def _sample_cases():
    yield from list_cases("main22")
    yield from list_cases("quadric21")
    yield from list_cases("nearmax", c1=BiDegree(3, 2))
    yield from list_cases("nearmax", c1=BiDegree(2, 2))
    for b in range(0, 3):
        yield from list_cases("halfmax", c1=BiDegree(3, 2), b=b)
    yield from list_cases("halfmax", c1=BiDegree(2, 2), b=2)


def _grid_cases():
    """Both fixed tables, and the parametric ones over c1 in 0..4 x 0..4
    (halfmax with every b in 0..c1b, nearmax where both degrees are >= 1)."""
    yield from list_cases("main22")
    yield from list_cases("quadric21")
    for a in range(5):
        for b in range(5):
            for split in range(b + 1):
                yield from list_cases("halfmax", c1=BiDegree(a, b), b=split)
            if a >= 1 and b >= 1:
                yield from list_cases("nearmax", c1=BiDegree(a, b))


def _cross_check_ranks(case: CaseSpec) -> tuple[int, int, int]:
    """The ranks at which a certificate is compared with the oracle."""
    return (case.display.min_rank, case.display.min_rank + 1, 10**6)


def test_rank_expr_parse_and_render():
    assert RankExpr.parse("r-2").evaluate(5) == 3
    assert RankExpr.parse("r") == RankExpr(0, 1)
    assert RankExpr.parse("r+3") == RankExpr(3, 1)
    assert RankExpr.parse(4) == RankExpr(4)
    assert str(RankExpr(3, 1)) == "r+3"
    assert RankExpr(0, 1).render() == "r"
    # constant expressions render as ints so JSON keeps them numeric
    assert RankExpr(2).render() == 2
    with pytest.raises(ValueError):
        RankExpr.parse("2r+1")
    with pytest.raises(ValueError):
        RankExpr.parse("r+")
    # constant multiplicities travel as ints, not digit strings
    with pytest.raises(ValueError):
        RankExpr.parse("4")
    # only multiplicities that appear in displays are renderable
    with pytest.raises(ValueError):
        RankExpr(1, 2).render()
    # bool and non-int coefficients are rejected, so JSON never sees true
    with pytest.raises(TypeError):
        RankExpr("x", "y")
    with pytest.raises(TypeError):
        RankExpr(0, True)
    with pytest.raises(TypeError):
        RankExpr.parse(True)
    # anything but an int or a str is a TypeError, not an AttributeError
    with pytest.raises(TypeError):
        RankExpr.parse(1.5)
    with pytest.raises(TypeError):
        RankExpr.parse(None)
    with pytest.raises(TypeError):
        RankExpr(1, 1) * True
    # a foreign operand of + or - is a TypeError, not an AttributeError
    with pytest.raises(TypeError):
        RankExpr(1) + 1
    with pytest.raises(TypeError):
        RankExpr(1) - 1


def test_rank_expr_evaluates_only_integer_ranks():
    # evaluate(2.5) would otherwise be 3.5, and evaluate(True) 2
    assert RankExpr(1, 1).evaluate(2) == 3
    for r in (2.5, True, "2", None):
        with pytest.raises(TypeError, match=f"^rank must be an integer, got {re.escape(repr(r))}$"):
            RankExpr(1, 1).evaluate(r)


def test_case_counts_and_order():
    assert [c.id for c in list_cases("main22")] == MAIN22_IDS
    assert len(list_cases("quadric21")) == 5
    assert len(list_cases("nearmax", c1=BiDegree(3, 2))) == 3
    assert len(list_cases("halfmax", c1=BiDegree(3, 2), b=1)) == 1
    with pytest.raises(ValueError):
        list_cases("bogus")


def test_all_means_the_parameter_free_tables():
    assert list_cases("all") == list_cases("main22") + list_cases("quadric21")
    assert catalog.sweep("all", None, 10) == [(c, c.display.min_rank) for c in list_cases("all")]
    with pytest.raises(HypothesisError, match="^main22 is not parametric"):
        list_cases("all", c1=BiDegree(2, 2))
    with pytest.raises(HypothesisError, match="^main22 is not parametric"):
        verify_all("all", b=1)


def test_an_empty_sweep_raises():
    for theorem, rank_min, rank_max, text in (
        ("all", 20, 3, "20..3"),
        ("main22", None, 0, "min_rank..0"),
        ("quadric21", 5, 4, "5..4"),
    ):
        with pytest.raises(HypothesisError, match=rf"^empty sweep: no case has a rank in {text}$"):
            catalog.sweep(theorem, rank_min, rank_max)
    with pytest.raises(HypothesisError, match="^empty sweep"):
        verify_all("nearmax", 30, 29, c1=BiDegree(3, 2))


def test_parameter_free_tables_are_built_once():
    assert list_cases("main22") is list_cases("main22")
    assert list_cases("quadric21") is list_cases("quadric21")


@pytest.mark.parametrize(
    ("theorem", "params"),
    [("halfmax", dict(c1=BiDegree(3, 2), b=1)), ("nearmax", dict(c1=BiDegree(3, 2)))],
    ids=["halfmax", "nearmax"],
)
def test_parametric_tables_are_built_once_per_parameter(theorem, params):
    cases = list_cases(theorem, **params)
    certs = [certify(case) for case in cases]
    again = list_cases(theorem, **params)
    assert again is cases
    assert all(certify(case) is cert for case, cert in zip(again, certs))


@pytest.mark.parametrize(
    ("theorem", "params"),
    [
        ("halfmax", dict(c1=BiDegree(3, 2), b=3)),
        ("halfmax", dict(c1=BiDegree(-1, 2), b=0)),
        ("nearmax", dict(c1=BiDegree(0, 3))),
    ],
    ids=["halfmax_b_too_big", "halfmax_not_effective", "nearmax_degree_zero"],
)
def test_bad_parameters_raise_on_every_call(theorem, params):
    # an error is not kept: the second call raises as the first did
    for _ in range(2):
        with pytest.raises(HypothesisError):
            list_cases(theorem, **params)


def test_parametric_theorems_require_their_parameters():
    with pytest.raises(HypothesisError):
        list_cases("halfmax")
    with pytest.raises(HypothesisError):
        list_cases("nearmax")
    with pytest.raises(HypothesisError):
        list_cases("halfmax", c1=BiDegree(3, 2))
    # a parameter the table does not take is an error, not ignored
    with pytest.raises(HypothesisError):
        list_cases("main22", c1=BiDegree(5, 5))
    with pytest.raises(HypothesisError):
        list_cases("quadric21", b=0)
    with pytest.raises(HypothesisError):
        list_cases("nearmax", c1=BiDegree(3, 3), b=2)


def test_parameters_must_have_their_types():
    # a bool or float b, or a tuple c1, is a TypeError, not a quiet match
    for c1, b in ((BiDegree(2, 1), True), (BiDegree(2, 1), 1.0), ((2, 1), 1)):
        with pytest.raises(TypeError):
            list_cases("halfmax", c1=c1, b=b)
    with pytest.raises(TypeError):
        list_cases("nearmax", c1=(3, 3))


def test_halfmax_parameter_validation():
    with pytest.raises(HypothesisError):
        list_cases("halfmax", c1=BiDegree(3, 2), b=3)
    with pytest.raises(HypothesisError):
        list_cases("halfmax", c1=BiDegree(3, 2), b=-1)
    with pytest.raises(HypothesisError):
        list_cases("halfmax", c1=BiDegree(-1, 2), b=0)


def test_min_ranks():
    got = {c.id: c.display.min_rank for c in list_cases("main22")}
    assert got["main22-1"] == 1
    assert got["main22-2"] == 2
    assert got["main22-5"] == 1
    assert got["main22-6-1-2"] == 3
    assert got["main22-6-2"] == 4
    assert got["main22-13"] == 1
    for case in _grid_cases():  # list_cases("all"), then the parametric grid
        # min_rank is the first rank, found by search, at which every
        # multiplicity of the display evaluates >= 0
        terms = case.display.sub + case.display.mid
        first = next(r for r in itertools.count(1) if all(m.evaluate(r) >= 0 for _, m in terms))
        assert case.display.min_rank == first, case.id


def test_min_rank_is_derived_from_the_display():
    case = {c.id: c for c in list_cases("main22")}["main22-6-2"]
    display = case.display
    assert "min_rank" not in Display.__match_args__ + CaseSpec.__match_args__
    assert display.min_rank == 4 and vars(display)["min_rank"] == 4
    # a replaced display has its own min_rank, and min_rank is not a field
    assert replace(display, mid=display.mid[:-1] + ((ZERO, RankExpr(-6, 1)),)).min_rank == 6
    for value in (0, 4):
        for holder in (display, case):
            with pytest.raises(TypeError):
                replace(holder, min_rank=value)


def test_every_case_matches_whitney_oracle():
    for case in _sample_cases():
        for r in range(case.display.min_rank, case.display.min_rank + 6):
            rank, c1, c2 = case_chern(case, r)
            got = certify(case).row(r).computed
            assert (got.rank, (got.c1.a, got.c1.b), got.c2) == (rank, c1, c2)
            assert rank == r
            assert c2 == case.expected_c2


def test_expected_c2_table():
    for case in list_cases("main22"):
        assert case.expected_c2 == EXPECTED_FAMILY_C2[_family(case)]
        assert case.c1 == BiDegree(2, 2)


def test_c2_independent_of_rank():
    for case in list_cases("main22"):
        values = {certify(case).row(r).c2 for r in range(case.display.min_rank, case.display.min_rank + 5)}
        assert values == {case.expected_c2}


def test_symbolic_rank_of_displays():
    # sum of multiplicities: mid minus sub plus the rank of the
    # cokernel must be exactly r for every display
    for case in _grid_cases():
        const = sum(m.const for _, m in case.display.mid) - sum(m.const for _, m in case.display.sub)
        coef = sum(m.coef for _, m in case.display.mid) - sum(m.coef for _, m in case.display.sub)
        if case.display.coker is not None and case.display.coker.kind is TorsionKind.STRUCTURE_SHEAF:
            const += 1
        total = RankExpr(const, coef)
        assert total == RankExpr(0, 1), case.id
        # the certificate's rank is that expression, and the oracle's, near and far
        cert = certify(case)
        assert (cert.base.rank, cert.slope.rank) == (total.const, total.coef), case.id
        for r in _cross_check_ranks(case):
            assert cert.row(r).rank == case_chern(case, r)[0] == r, (case.id, r)


def test_twins():
    by_id = {c.id: c for c in list_cases("main22")}
    swaps = [c for c in by_id.values() if c.id.endswith("-swap")]
    assert len(swaps) == 5
    for tw in swaps:
        base = by_id[tw.twin_of]
        assert tw.id == base.id + "-swap"
        assert tw.display.min_rank == base.display.min_rank
        assert tw.expected_c2 == base.expected_c2
        # term data is the base's with both ruling degrees exchanged
        assert [(d.swap(), m) for d, m in tw.display.sub] == list(base.display.sub)
        assert [(d.swap(), m) for d, m in tw.display.mid] == list(base.display.mid)
        for r in range(base.display.min_rank, base.display.min_rank + 4):
            a = certify(base).row(r).computed
            b = certify(tw).row(r).computed
            assert (a.rank, a.c2) == (b.rank, b.c2)
            assert a.c1 == b.c1.swap()
    bases_with_twin = {tw.twin_of for tw in swaps}
    assert bases_with_twin == {
        "main22-2",
        "main22-6-1",
        "main22-6-1-2",
        "main22-6-3",
        "main22-8",
    }
    for case in by_id.values():
        assert (case.twin_of is not None) == case.id.endswith("-swap")


@pytest.mark.parametrize("kind", list(TorsionKind), ids=lambda kind: kind.value)
def test_a_twin_swaps_the_c1_of_every_cokernel_kind(kind):
    # mid O(1,0) + O^(r-1) and a cokernel: with a curve cokernel on a (1,0)
    # curve c1 is (2,0), and the twin's must be (0,2), its support swapped too
    curve = kind is TorsionKind.CURVE_TORSION
    coker = TorsionDescriptor(kind, BiDegree(1, 0), 1) if curve else TorsionDescriptor(kind)
    display = Display((), ((BiDegree(1, 0), RankExpr(1)), (ZERO, RankExpr(-1, 1))), coker)
    case = CaseSpec("asymmetric", "main22", display.kclass(1).c1, display, 0, None, False)
    twin = catalog._swapped(case)
    assert twin.display == display.swap() and display.swap().swap() == display
    for r in (1, 2, 10**6):
        k, swapped = case_kclass(case, r), case_kclass(twin, r)
        assert (swapped.rank, swapped.c1, swapped.ch2x2) == (k.rank, k.c1.swap(), k.ch2x2)
        assert swapped.c1 == twin.c1 and swapped == display.swap().kclass(r)


def test_symmetric_displays_have_no_twin():
    by_id = {c.id: c for c in list_cases("main22")}
    def key(term):
        d, m = term
        return (d.a, d.b, m.const, m.coef)

    for cid in ("main22-1", "main22-3", "main22-6", "main22-6-1-1", "main22-9"):
        case = by_id[cid]
        assert case.twin_of is None
        swapped = sorted(((d.swap(), m) for d, m in case.display.mid), key=key)
        assert swapped == sorted(case.display.mid, key=key)


def test_same_numerics_across_distinct_displays():
    by_id = {c.id: c for c in list_cases("main22")}
    # all five displays refining case six share its invariants
    six = by_id["main22-6"]
    for cid in ("main22-6-1", "main22-6-1-1", "main22-6-1-2", "main22-6-2", "main22-6-3"):
        other = by_id[cid]
        r = max(six.display.min_rank, other.display.min_rank)
        assert certify(other).row(r).computed == certify(six).row(r).computed
    # cases eight and nine differ in display but not in (rank, c1, c2)
    assert certify(by_id["main22-8"]).row(3).computed == certify(by_id["main22-9"]).row(3).computed


def test_quadric21_table():
    cases = list_cases("quadric21")
    assert [c.expected_c2 for c in cases] == [0, 1, 2, 3, 4]
    for case in cases:
        assert case.c1 == BiDegree(2, 1)
        assert 0 <= case.expected_c2 <= 4


@pytest.mark.parametrize("theorem", ["main22", "quadric21"])
def test_each_row_of_a_fixed_table_is_the_line_catalog_list_prints(theorem):
    # a table is parsed from the notation that catalog list renders, so the
    # parser and the renderer must agree on every row's sums and cokernel
    c1, text = catalog._TABLES[theorem]
    assert type(text) is str
    cases = iter(list_cases(theorem))
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        number, sub, mid, coker, c2, *flags = line.split()
        assert len(set(flags)) == len(flags) and set(flags) <= {"twin", "not-gg", "bondal"}
        case = next(cases)
        display = f"{theorem}-{number}: 0 -> {sub} -> {mid} -> E -> {coker} -> 0"
        assert _case_line(case) == f"{display}  [min_rank {case.display.min_rank}, c2 {c2}]"
        assert (case.c1, case.expected_c2, case.globally_generated, case.bondal_reconstructible) == (
            BiDegree(*c1),
            int(c2),
            "not-gg" not in flags,
            "bondal" in flags,
        )
        if "twin" in flags:
            assert next(cases).twin_of == case.id
    assert next(cases, None) is None


def test_every_printed_sum_parses_back_to_its_display():
    # every table is built from text, so each sum catalog list prints, the
    # parametric grid's O^0 and bare O included, must read back as its terms
    for case in _grid_cases():
        sub, mid = re.fullmatch(r"\S+: 0 -> (\S+) -> (\S+) -> E -> .*", _case_line(case)).groups()
        assert (catalog._sum(sub), catalog._sum(mid)) == (case.display.sub, case.display.mid), case.id


def test_halfmax_split_and_general():
    split = list_cases("halfmax", c1=BiDegree(3, 2), b=2)[0]
    assert split.id == "halfmax-split"
    assert split.expected_c2 == 0
    general = list_cases("halfmax", c1=BiDegree(3, 2), b=1)[0]
    assert general.id == "halfmax-general"
    assert general.expected_c2 == 3
    # c2 = a * (b-parameter gap); the split case is the gap-zero limit
    for b in range(0, 2):
        case = list_cases("halfmax", c1=BiDegree(3, 2), b=b)[0]
        assert case.expected_c2 == 3 * (2 - b)


def test_nearmax_table():
    for c1 in (BiDegree(3, 2), BiDegree(2, 2), BiDegree(4, 1)):
        cases = list_cases("nearmax", c1=c1)
        top = c1.a + c1.b
        assert [c.expected_c2 for c in cases] == [top - 2, top - 1, top]
    with pytest.raises(HypothesisError):
        list_cases("nearmax", c1=BiDegree(0, 2))


def test_case_json_schema():
    for case in _sample_cases():
        doc = case_to_json(case)
        assert sorted(doc) == [
            "coker",
            "flags",
            "id",
            "mid",
            "min_rank",
            "sub",
            "theorem",
            "twin_of",
        ]
        assert sorted(doc["flags"]) == [
            "bondal_reconstructible",
            "globally_generated",
            "nef",
            "weak_fano",
        ]
        assert doc["flags"]["nef"] == "asserted"
        for term in doc["sub"] + doc["mid"]:
            assert sorted(term) == ["deg", "mult"]
            assert len(term["deg"]) == 2
            mult = term["mult"]
            # grammar: int, or the strings "r", "r+k", "r-k"
            if isinstance(mult, str):
                RankExpr.parse(mult)
            else:
                assert isinstance(mult, int)
        if doc["coker"] is not None:
            assert doc["coker"]["kind"] in ("point", "structure", "curve")
        # stable under a serialization round trip
        blob = json.dumps(doc, sort_keys=True, indent=2)
        assert json.loads(blob) == doc


def test_weak_fano_flag():
    false_ids = {
        c.id for c in list_cases("main22") if not case_to_json(c)["flags"]["weak_fano"]
    }
    assert false_ids == {"main22-10", "main22-12", "main22-13"}
    # every table's flag, and that of its row at min_rank, against intersect
    for case in _grid_cases():
        assert case.flags()["weak_fano"] == (case.expected_c2 < intersect(case.c1, case.c1)), case.id
        row = verify_case(case, case.display.min_rank)  # every grid case has Chern data there
        assert row.weak_fano == is_weak_fano(row.computed) == (row.c2 < intersect(row.c1, row.c1)), case.id


def test_globally_generated_flag():
    not_gg = {c.id for c in list_cases("main22") if not c.globally_generated}
    assert not_gg == {"main22-11", "main22-12", "main22-13"}


def test_bondal_reconstructible_flag():
    marked = {c.id for c in list_cases("main22") if c.bondal_reconstructible}
    assert marked == {"main22-9", "main22-11", "main22-12", "main22-13"}


def test_table_claims_hold_for_every_rank():
    # certify(case) proves every check of verify_case for every r >= min_rank
    # from the display's affine class; its rows are cross-checked here against
    # the independent Whitney oracle at min_rank, min_rank + 1 and 10**6.
    cases = list(_grid_cases())
    assert len(cases) == 28 + 75 + 3 * 16
    for case in cases:
        cert = certify(case)
        assert cert.proved_from(case.display.min_rank), case.id
        # every shipped display has the slope [O]: rank r, and c1, c2 fixed
        assert cert.slope == KClass(1, ZERO, 0), case.id
        assert cert.base.rank == 0 and cert.base.c1 == case.c1, case.id
        for _, m in case.display.sub + case.display.mid:
            assert m.coef in (0, 1) and m.evaluate(case.display.min_rank) >= 0, case.id
        for r in _cross_check_ranks(case):
            oracle = case_chern(case, r)
            e = to_chern(case_kclass(case, r))
            assert oracle == (e.rank, (e.c1.a, e.c1.b), e.c2), (case.id, r)
            assert e.c2 == case.expected_c2, case.id
            assert 0 <= e.c2 <= intersect(case.c1, case.c1), case.id
            assert euler_char(e) >= 0, case.id
            row = cert.row(r)
            assert (row.rank, row.c1, row.c2) == (e.rank, e.c1, e.c2), (case.id, r)
            assert all(passed for _, passed, _ in row.checks), (case.id, r)


def test_affine_class_is_computed_on_first_use():
    # a fresh copy: the table's own case may be certified by an earlier test
    case = replace(list_cases("halfmax", c1=BiDegree(3, 2), b=1)[0])
    assert "_certificate" not in vars(case)
    case_kclass(case, 4)
    assert "_certificate" in vars(case)
    # one certificate per case, kept on it, with its fixed checks kept on it
    cert = certify(case)
    assert certify(case) is cert and cert.case is case
    assert "_fixed" not in vars(cert)
    assert verify_case(case, 4).passed and certify(case) is cert
    assert vars(cert)["_fixed"] is not None
    # the twin and a replaced case are new instances with their own certificate
    twin = catalog._swapped(case)
    assert "_certificate" not in vars(twin)
    assert case_kclass(twin, 4).c1 == case_kclass(case, 4).c1.swap()
    changed = replace(case, expected_c2=0)
    assert "_certificate" not in vars(changed)
    assert not certify(changed).proved_from(changed.display.min_rank)
    assert cert.proved_from(case.display.min_rank)


def test_case_spec_checks_its_fields():
    case = list_cases("main22")[0]
    for field, value in (
        ("expected_c2", False),
        ("expected_c2", 0.0),
        ("bondal_reconstructible", 0),
        ("bondal_reconstructible", None),
        ("globally_generated", 1),
        ("globally_generated", "yes"),
    ):
        with pytest.raises(TypeError):
            replace(case, **{field: value})
    assert replace(case, globally_generated=None).globally_generated is None


def test_case_spec_terms_are_bidegree_rank_expr_pairs():
    display = list_cases("main22")[0].display
    good = (ZERO, RankExpr(1))
    for field in ("sub", "mid"):
        for terms in (
            ((ZERO, 1),),
            (((0, 0), RankExpr(1)),),
            ((ZERO, RankExpr(1), 0),),
            ([ZERO, RankExpr(1)],),
            (good, (ZERO, "r")),
            [good],
            None,
        ):
            with pytest.raises(TypeError, match=rf"^Display\.{field} must be a tuple of \(BiDegree, RankExpr\) pairs"):
                replace(display, **{field: terms})
        assert getattr(replace(display, **{field: (good,)}), field) == (good,)


def test_sweep_proves_reconstruction_twice_per_c2(monkeypatch):
    calls = []
    reconstruct = verify.reconstruct

    def counting(e):
        calls.append((e.c2, e.rank))
        return reconstruct(e)

    monkeypatch.setattr(verify, "reconstruct", counting)
    reports = verify_all("main22", rank_max=300)
    assert all(r.passed for r in reports)
    assert sum(1 for r in reports for c in r.checks if c.name == "reconstruction") == 4 * 300
    # c2 = 6, 7, 8 (main22-9, -11, -12 and -13), each proved at ranks 1 and 2
    assert Counter(c2 for c2, _ in calls) == {6: 2, 7: 2, 8: 2}
    assert {rank for _, rank in calls} == {1, 2}


def _verdict_ranks(case: CaseSpec, rng: random.Random) -> tuple[int, ...]:
    """min_rank and three random ranks up to 10**6."""
    return (case.display.min_rank, *(rng.randint(case.display.min_rank, 10**6) for _ in range(3)))


def _row_with_its_verdict(case: CaseSpec, r: int) -> VerificationReport:
    """``row(r)``, after checking that it passes exactly when every check passes."""
    row = certify(case).row(r)
    assert row.passed is all(check.passed for check in row.checks), (case.id, r)
    return row


def test_a_row_passes_exactly_when_every_check_passes():
    # _grid_cases holds every shipped case and the parametric grid
    rng = random.Random(23)
    for case in _grid_cases():
        for r in _verdict_ranks(case, rng):
            assert _row_with_its_verdict(case, r).passed, (case.id, r)


def test_a_failing_reconstruction_is_not_proved(monkeypatch):
    def broken(e):
        raise ReconstructionError(f"no module profile for {e}")

    monkeypatch.setattr(verify, "reconstruct", broken)
    case = {c.id: c for c in list_cases("main22")}["main22-9"]
    cert = certify(case)
    assert not cert.proved_from(case.display.min_rank)
    name, passed, detail = cert.row(3).checks[-1]
    assert (name, passed) == ("reconstruction", False) and detail.startswith("no module profile")
    # every flagged case then fails the reconstruction check alone, at each rank tried
    rng = random.Random(23)
    flagged = [case for case in _grid_cases() if case.bondal_reconstructible]
    assert [case.id for case in flagged] == ["main22-9", "main22-11", "main22-12", "main22-13"]
    for case in flagged:
        for r in _verdict_ranks(case, rng):
            row = _row_with_its_verdict(case, r)
            assert [check.name for check in row.checks if not check.passed] == ["reconstruction"], (case.id, r)


def test_case_kclass_consistency():
    for case in _sample_cases():
        r = case.display.min_rank + 1
        assert to_chern(case_kclass(case, r)) == certify(case).row(r).computed


def test_verify_case_reports():
    case = list_cases("main22")[0]
    report = verify_case(case, 3)
    assert report.passed
    assert report.case_id == "main22-1"
    assert report.rank_tested == 3
    assert report.computed.c2 == 0
    names = [c.name for c in report.checks]
    assert "rank" in names and "c1" in names and "c2" in names
    assert all(c.passed for c in report.checks)
    doc = report.to_json()
    assert doc["case_id"] == "main22-1"
    assert json.loads(json.dumps(doc)) == doc


def test_verify_case_is_the_certificate_row_with_named_checks():
    for case in _grid_cases():
        for r in (case.display.min_rank, case.display.min_rank + 3):
            report, row = verify_case(case, r), certify(case).row(r)
            assert type(report) is type(row) is VerificationReport
            assert report == row, (case.id, r)
            for name in VerificationReport._fields:
                assert getattr(report, name) == getattr(row, name), (case.id, r, name)
            # every check is a CheckResult at the row already, reconstruction included
            assert all(type(check) is CheckResult for check in report.checks + row.checks), (case.id, r)
            assert (report.case_id, report.computed) == (case.id, to_chern(case_kclass(case, r)))
            assert report.flags == {**case.flags(), "weak_fano": row.c2 < intersect(row.c1, row.c1)}


def test_verify_all_is_the_rows_of_the_certificates():
    reports = verify_all("all")
    rows = [row for case in list_cases("all") for row in certify(case).rows(case.display.min_rank, 10)[1]]
    assert reports == rows and len(reports) == 261
    assert all(type(check) is CheckResult for report in reports for check in report.checks)


def test_verify_case_runs_reconstruction_when_marked():
    by_id = {c.id: c for c in list_cases("main22")}
    report = verify_case(by_id["main22-11"], 2)
    assert "reconstruction" in [c.name for c in report.checks]
    assert report.passed
    report = verify_case(by_id["main22-1"], 2)
    assert "reconstruction" not in [c.name for c in report.checks]
    # a flag where the module profile does not exist (c2 = 2) fails, and is not skipped
    report = verify_case(replace(by_id["main22-3"], bondal_reconstructible=True), 2)
    assert report.checks[-1] == (
        "reconstruction",
        False,
        "the module profile needs c1 (2,2) and 6 <= c2 <= 8, got c1 (2,2) and c2 2",
    )
    assert not report.passed


def test_verify_case_below_min_rank():
    case = [c for c in list_cases("main22") if c.id == "main22-6-2"][0]
    with pytest.raises(ValueError):
        verify_case(case, 3)


def test_ranks_must_be_integers():
    case = list_cases("main22")[0]
    for r in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            verify_case(case, r)
        with pytest.raises(TypeError, match=f"^rank must be an integer, got {r!r}$"):
            certify(case).row(r)
    with pytest.raises(ValueError, match="^main22-1 needs rank >= 1, got 0$"):
        certify(case).row(0)
    with pytest.raises(TypeError, match="^rank must be an integer, got True$"):
        case_kclass(case, True)
    # verify_all sweeps through catalog.sweep, which checks the bounds
    for rank_min, rank_max in ((None, True), (None, 10.0), (True, 10), (1.0, 10)):
        with pytest.raises(TypeError):
            verify_all("main22", rank_min, rank_max)


def test_functions_that_take_a_case_require_a_case_spec():
    # a case id, or None, is a TypeError naming it, not an AttributeError
    for call, shown in (
        (lambda: verify_case("main22-1", 3), "'main22-1'"),
        (lambda: case_kclass("main22-1", 3), "'main22-1'"),
        (lambda: certify(None), "None"),
        (lambda: case_to_json("main22-1"), "'main22-1'"),
    ):
        with pytest.raises(TypeError, match=f"^case must be a CaseSpec, got {shown}$"):
            call()


@pytest.mark.parametrize(
    ("lo", "hi", "message"),
    [
        (1, True, "hi must be an integer, got True"),
        (1, 3.0, "hi must be an integer, got 3.0"),
        (True, 3, "lo must be an integer, got True"),
        (1.0, 3, "lo must be an integer, got 1.0"),
    ],
    ids=["bool_hi", "float_hi", "bool_lo", "float_lo"],
)
def test_rank_bounds_of_rows_must_be_integers(lo, hi, message):
    # rows(1, True) would otherwise be the one row at rank 1
    for case in (list_cases("main22")[0], replace(list_cases("main22")[0], expected_c2=1)):
        with pytest.raises(TypeError, match=f"^{message}$"):
            certify(case).rows(lo, hi)


def test_an_empty_range_of_rows_is_an_error():
    # as sweep and verify_all do, rows refuses a range with no rank, for a
    # proved and a failing case alike
    proved = list_cases("main22")[0]
    for case, passed in ((proved, 1), (replace(proved, expected_c2=1), 0)):
        with pytest.raises(HypothesisError, match=r"^empty sweep: no rank in 5\.\.3$"):
            certify(case).rows(5, 3)
        assert certify(case).rows(3, 3)[0] == passed


def test_verify_all():
    reports = verify_all("main22", rank_max=4)
    assert all(r.passed for r in reports)
    # each case contributes one report per admissible rank up to 4
    expected = sum(
        max(0, 4 - c.display.min_rank + 1) for c in list_cases("main22")
    )
    assert len(reports) == expected
    with pytest.raises(HypothesisError, match=r"^empty sweep: no case has a rank in 9\.\.8$"):
        verify_all("main22", rank_min=9, rank_max=8)
    with pytest.raises(HypothesisError):
        verify_all("halfmax")
