"""Immutable value types, without importing the stdlib's data classes.

``@frozen`` gives a class with annotated fields what a frozen stdlib data
class has: an ``__init__`` over the fields in order, with their defaults,
that calls ``__post_init__`` if the class has one; ``__eq__`` and
``__hash__`` over the field tuple, equal only to the same class; a
``Name(field=value, ...)`` repr; ``__match_args__``; and no assignment or
deletion of attributes.  The three methods over the fields are compiled
from generated source by ``exec``, as ``collections.namedtuple`` does, at
first use: the first construction compiles ``__init__``, and the first
``==`` or ``hash`` ``__eq__`` and ``__hash__``.  Until then the class holds
stand-ins, and ``inspect.signature`` of the class shows the stand-in's.  A
class with no ``functools.cached_property`` is rebuilt with ``__slots__``
over its fields, as ``dataclass(slots=True)`` does, and its ``__init__``
stores each field through its slot; a method closing over ``__class__``
(zero-argument ``super()``) would keep the old class, so it is refused.
A class with a cached property keeps its ``__dict__`` for the cache.

The ``__init__`` also owns the type rule of every value type: a field
annotated ``Name`` or ``Name | None`` holds exactly that class (or None),
so a bool is not an int, and anything else raises ``TypeError`` naming
``Type.field``.  ``Name`` is looked up in the class's module, then in
builtins.  A subscripted generic such as ``tuple[Term, ...]`` is not
checked; any other annotation is refused when the class is decorated.
"""

from __future__ import annotations

import builtins
import functools
import sys
from typing import Any, TypeVar

T = TypeVar("T")


def frozen(cls: type[T]) -> type[T]:
    """Make ``cls`` an immutable value type over its annotated fields.

    >>> @frozen
    ... class Point:
    ...     x: int
    ...     y: int = 0
    >>> p = Point(1)
    >>> p, p == Point(1, 0), p == (1, 0), hash(p) == hash((1, 0))
    (Point(x=1, y=0), True, False, True)
    >>> replace(p, y=2)
    Point(x=1, y=2)
    >>> p.x = 2
    Traceback (most recent call last):
    AttributeError: cannot assign to field 'x'
    >>> Point(1, True)
    Traceback (most recent call last):
    TypeError: Point.y must be int, got True
    """
    own = cls.__dict__
    notes = own.get("__annotations__", {})
    names = tuple(notes)
    scope: dict[str, Any] = {"_own": own, "_set": object.__setattr__}
    params = "".join(f", {n}=_own[{n!r}]" if n in own else f", {n}" for n in names)
    store = "\n    _set(self, {0!r}, {0})"
    if functools.cached_property not in map(type, own.values()):
        cls = _slotted(cls, names, scope)
        store = "\n    _set_{0}(self, {0})"
    stores = "".join(_check(cls, n, notes[n], scope) + store.format(n) for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    eq = (
        f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
    )
    init = f"def __init__(self{params}):{stores}{post}\n"
    for name, source in (("__init__", init), ("__eq__", eq), ("__hash__", eq)):
        setattr(cls, name, _stand_in(cls, name, source, scope))
    cls.__match_args__ = names
    cls.__repr__ = _repr
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


def _slotted(cls: type, names: tuple[str, ...], scope: dict[str, Any]) -> type:
    """``cls`` rebuilt with ``__slots__`` over its fields, and each slot's setter bound in
    ``scope`` as ``_set_<field>``.  Copy and pickle rebuild a value through ``__init__``."""
    body = dict(vars(cls), __slots__=names, __reduce__=_reduce)
    for name in (*names, "__dict__", "__weakref__"):
        body.pop(name, None)
    for value in body.values():
        for f in (getattr(value, "__func__", value), getattr(value, "fget", None)):
            if "__class__" in getattr(getattr(f, "__code__", None), "co_freevars", ()):
                raise TypeError(f"{cls.__qualname__}: a method closes over __class__, left behind by a slotted rebuild")
    rebuilt = type(cls)(cls.__name__, cls.__bases__, body)
    rebuilt.__qualname__ = cls.__qualname__
    for name in names:
        scope[f"_set_{name}"] = vars(rebuilt)[name].__set__
    return rebuilt


def _stand_in(cls: type, name: str, source: str, scope: dict[str, Any]) -> Any:
    """``cls.name`` until its first call, which compiles ``source`` and puts its methods on ``cls``."""

    def stand_in(self: Any, *args: Any, **kwargs: Any) -> Any:
        if vars(cls)[name] is stand_in:
            methods: dict[str, Any] = {}
            exec(source, scope, methods)
            for method, function in methods.items():
                function.__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, function)
        return vars(cls)[name](self, *args, **kwargs)

    return stand_in


def _check(cls: type, name: str, note: str, scope: dict[str, Any]) -> str:
    """The lines of ``__init__`` that test field ``name``, none for a generic.
    The class tested for is bound as a plain name in ``scope``."""
    if note.partition("[")[0].isidentifier() and note.endswith("]"):
        return ""
    field, kind_name = f"{cls.__qualname__}.{name}", note.removesuffix(" | None")
    if not kind_name.isidentifier():
        raise TypeError(f"{field}: cannot check the annotation {note!r}")
    kind = getattr(sys.modules[cls.__module__], kind_name, getattr(builtins, kind_name, None))
    if not isinstance(kind, type):
        raise TypeError(f"{field}: {kind_name!r} does not name a class")
    alias, optional = f"_t{len(scope)}", kind_name != note
    scope[alias] = kind
    test = (f"{name} is not None and " if optional else "") + f"type({name}) is not {alias}"
    message = f"{field} must be {kind_name}{' or None' if optional else ''}, got "
    return f"\n    if {test}:\n        raise TypeError({message!r} + repr({name}))"


def _repr(self: Any) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _reduce(self: Any) -> tuple[type, tuple[Any, ...]]:
    return self.__class__, tuple(map(self.__getattribute__, self.__match_args__))


def _refuse_set(self: Any, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self: Any, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: T, **changes: Any) -> T:
    """A copy of ``obj`` with some fields changed.  It is built through
    ``__init__``, so the field checks run again; an unknown field name
    raises ``TypeError``."""
    for name in obj.__match_args__:  # type: ignore[attr-defined]
        changes.setdefault(name, getattr(obj, name))
    return type(obj)(**changes)
