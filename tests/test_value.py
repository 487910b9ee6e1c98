"""Value semantics of the library's immutable value types: frozen fields,
equality and hash over the field tuple, equality only with the same type,
the pinned reprs, ``replace`` re-running the field checks, and the type
rule that ``frozen`` compiles into every ``__init__``."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
from types import MappingProxyType

import pytest

import nefq2
from nefq2 import BiDegree, BundleNumerics, HypothesisError, list_cases
from nefq2._value import _repr, frozen, replace
from nefq2.bondal import E2Entry, E2Page, ShiftedLineClass, e2_page
from nefq2.catalog import CaseSpec, Certificate, RankExpr, certify
from nefq2.cohomology import CohomologyVector
from nefq2.ktheory import KClass, TorsionDescriptor, TorsionKind

C22 = BiDegree(2, 2)
CURVE = TorsionDescriptor(TorsionKind.CURVE_TORSION, C22, 1)
ENTRY = E2Entry(KClass(0, BiDegree(0, 0), 2), "k(p)", TorsionDescriptor(TorsionKind.POINT_SHEAF))
CASE = CaseSpec(
    id="t-1",
    theorem="t",
    c1=C22,
    sub_terms=((BiDegree(0, 0), RankExpr(1)),),
    mid_terms=((BiDegree(1, 1), RankExpr(-1, 1)),),
    coker=None,
    expected_c2=2,
    globally_generated=None,
    bondal_reconstructible=False,
)

#: (value, its repr, a change that replace must refuse, the error it raises)
VALUES = [
    (BiDegree(1, 2), "BiDegree(a=1, b=2)", {"a": True}, TypeError),
    (CohomologyVector(4, 0, 0), "CohomologyVector(h0=4, h1=0, h2=0)", {"h1": -1}, ValueError),
    (
        BundleNumerics(3, C22, 6),
        "BundleNumerics(rank=3, c1=BiDegree(a=2, b=2), c2=6)",
        {"rank": 0},
        ValueError,
    ),
    (KClass(3, C22, 6), "KClass(rank=3, c1=BiDegree(a=2, b=2), ch2x2=6)", {"ch2x2": 6.0}, TypeError),
    (
        CURVE,
        "TorsionDescriptor(kind=<TorsionKind.CURVE_TORSION: 'curve'>, support=BiDegree(a=2, b=2), twist_degree=1)",
        {"support": None},
        HypothesisError,
    ),
    (
        ShiftedLineClass(BiDegree(-1, 0), 1),
        "ShiftedLineClass(degree=BiDegree(a=-1, b=0), shift=1)",
        {"shift": 1.0},
        TypeError,
    ),
    (
        ENTRY,
        "E2Entry(kclass=KClass(rank=0, c1=BiDegree(a=0, b=0), ch2x2=2), label='k(p)', "
        "torsion=TorsionDescriptor(kind=<TorsionKind.POINT_SHEAF: 'point'>, support=None, twist_degree=0))",
        {"torsion": TorsionKind.POINT_SHEAF},
        TypeError,
    ),
    (
        E2Page(6, 3, None, MappingProxyType({(0, 0): ENTRY})),
        "E2Page(c2=6, rank=3, variant=None, entries=mappingproxy({(0, 0): E2Entry(kclass=KClass(rank=0, "
        "c1=BiDegree(a=0, b=0), ch2x2=2), label='k(p)', torsion=TorsionDescriptor(kind=<TorsionKind.POINT_SHEAF: "
        "'point'>, support=None, twist_degree=0))}))",
        {"variant": b"curve"},
        TypeError,
    ),
    (RankExpr(-3, 1), "RankExpr(const=-3, coef=1)", {"coef": True}, TypeError),
    (
        CASE,
        "CaseSpec(id='t-1', theorem='t', c1=BiDegree(a=2, b=2), "
        "sub_terms=((BiDegree(a=0, b=0), RankExpr(const=1, coef=0)),), "
        "mid_terms=((BiDegree(a=1, b=1), RankExpr(const=-1, coef=1)),), coker=None, "
        "expected_c2=2, globally_generated=None, bondal_reconstructible=False, twin_of=None)",
        {"mid_terms": ((C22, -1),)},
        TypeError,
    ),
    (
        Certificate(CASE, KClass(-1, C22, 0), KClass(1, BiDegree(0, 0), 0)),
        "Certificate(case=CaseSpec(id='t-1', theorem='t', c1=BiDegree(a=2, b=2), "
        "sub_terms=((BiDegree(a=0, b=0), RankExpr(const=1, coef=0)),), "
        "mid_terms=((BiDegree(a=1, b=1), RankExpr(const=-1, coef=1)),), coker=None, "
        "expected_c2=2, globally_generated=None, bondal_reconstructible=False, twin_of=None), "
        "base=KClass(rank=-1, c1=BiDegree(a=2, b=2), ch2x2=0), slope=KClass(rank=1, c1=BiDegree(a=0, b=0), ch2x2=0))",
        {"slope": (1, (0, 0), 0)},
        TypeError,
    ),
]
IDS = [type(value).__name__ for value, *_ in VALUES]


def _value_types() -> list[type]:
    """Every class of the package that ``frozen`` built, found by its repr."""
    modules = [importlib.import_module(f"nefq2.{m.name}") for m in pkgutil.iter_modules(nefq2.__path__)]
    return [
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and vars(cls).get("__repr__") is _repr
    ]


#: (type, field) for every field annotated with a class name, with or
#: without ``| None``; a generic such as ``tuple[Term, ...]`` is not checked
CHECKED = [
    (cls, name) for cls in _value_types() for name, note in vars(cls)["__annotations__"].items() if "[" not in note
]


def _fields(value: object) -> tuple:
    return tuple(getattr(value, name) for name in value.__match_args__)


def _hashed(value: object) -> object:
    """hash(value), or TypeError for a value with an unhashable field."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_type_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in _value_types())


@pytest.mark.parametrize("value,text,bad,error", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text, bad, error):
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value,text,bad,error", VALUES, ids=IDS)
def test_reprs_are_unchanged(value, text, bad, error):
    assert repr(value) == text
    assert repr(replace(value)) == text


@pytest.mark.parametrize("value,text,bad,error", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(value, text, bad, error):
    copy = replace(value)
    assert copy is not value and copy == value and not copy != value
    assert _hashed(value) == _hashed(_fields(value))
    assert value != _fields(value)
    assert value.__eq__(_fields(value)) is NotImplemented


@pytest.mark.parametrize("value,text,bad,error", VALUES, ids=IDS)
def test_replace_runs_the_field_checks_again(value, text, bad, error):
    with pytest.raises(error):
        replace(value, **bad)


def test_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError):
        replace(ShiftedLineClass(BiDegree(-1, 0), 1), bogus=1)


@pytest.mark.parametrize("cls,name", CHECKED, ids=[f"{c.__name__}.{n}" for c, n in CHECKED])
def test_every_checked_field_refuses_a_foreign_value(cls, name):
    value = next(v for v, *_ in VALUES if type(v) is cls)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name} must be \w+( or None)?, got <object object"):
        replace(value, **{name: object()})


def test_the_type_rule_is_exact_and_names_the_field():
    with pytest.raises(TypeError, match=r"^BundleNumerics\.c1 must be BiDegree, got \(2, 2\)$"):
        BundleNumerics(2, (2, 2), 5)
    with pytest.raises(TypeError, match=r"^KClass\.rank must be int, got True$"):
        KClass(True, C22, 0)
    with pytest.raises(TypeError, match=r"^CaseSpec\.coker must be TorsionDescriptor or None, got 'point'$"):
        replace(CASE, coker="point")
    assert replace(CASE, coker=None) == CASE


def test_frozen_refuses_an_annotation_it_cannot_check():
    with pytest.raises(TypeError, match=r"Either\.x: cannot check the annotation 'int \| str'"):

        @frozen
        class Either:
            x: int | str

    with pytest.raises(TypeError, match=r"Lost\.x: 'Nowhere' does not name a class"):

        @frozen
        class Lost:
            x: Nowhere  # noqa: F821

    with pytest.raises(TypeError, match=r"Module\.x: 'pytest' does not name a class"):

        @frozen
        class Module:
            x: pytest


def test_equal_only_to_the_same_type():
    assert BiDegree(1, 2) != (1, 2)
    assert KClass(3, C22, 6) != BundleNumerics(3, C22, 6)
    assert len({KClass(3, C22, 6), BundleNumerics(3, C22, 6)}) == 2
    assert RankExpr(2) != BiDegree(2, 0)


def test_defaults_and_derived_values():
    assert TorsionDescriptor(TorsionKind.POINT_SHEAF) == TorsionDescriptor(TorsionKind.POINT_SHEAF, None, 0)
    assert RankExpr(4) == RankExpr(4, 0)
    assert replace(BiDegree(1, 2), b=5) == BiDegree(1, 5)
    page = e2_page(7, 3)
    assert replace(page) == page and replace(page).entries is page.entries
    case = list_cases("main22")[0]
    assert replace(case) == case and replace(case, id="x") != case


SLOTTED = [v for v, *_ in VALUES if type(v) not in (CaseSpec, Certificate)]


@pytest.mark.parametrize("value", SLOTTED, ids=[type(v).__name__ for v in SLOTTED])
def test_value_types_without_a_cached_property_are_slotted(value):
    cls = type(value)
    assert cls.__slots__ == cls.__match_args__ == tuple(vars(cls)["__annotations__"])
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1)
    # copy and pickle rebuild a value through __init__; a mappingproxy neither
    # deep-copies nor pickles, so a page is only copied
    assert copy.copy(value) == value
    if cls is not E2Page:
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value


def test_cached_properties_keep_their_values_in_the_instance_dict():
    case = list_cases("main22")[0]
    cert = certify(case)
    assert cert._fixed is not None and case.min_rank == 1
    assert {"min_rank", "_certificate"} <= set(vars(case)) and "_fixed" in vars(cert)
    assert not hasattr(CaseSpec, "__slots__") and not hasattr(Certificate, "__slots__")


def test_frozen_refuses_a_method_that_closes_over_its_class():
    # the slotted rebuild would leave super()'s __class__ cell on the old class
    with pytest.raises(TypeError, match=r"Child: a method closes over __class__"):

        @frozen
        class Child:
            x: int

            def __str__(self) -> str:
                return super().__str__()

    with pytest.raises(TypeError, match=r"Named: a method closes over __class__"):

        @frozen
        class Named:
            x: int

            @property
            def kind(self) -> str:
                return __class__.__name__
