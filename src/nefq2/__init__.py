"""Exact intersection, cohomology and K-theory calculus on the quadric
surface, plus a verified catalog of nef-bundle classification families.

The package namespace holds the names the README documents; everything
else is imported from its module, e.g. ``from nefq2.ktheory import KClass``.
"""

from __future__ import annotations

from typing import Any

__version__ = "0.1.0"

from .catalog import list_cases
from .cohomology import BundleNumerics, euler_char
from .errors import (
    HypothesisError,
    MalformedClassError,
    NefQ2Error,
    ReconstructionError,
    VirtualClassError,
)
from .picard import BiDegree

__all__ = [
    "__version__",
    "BiDegree",
    "BundleNumerics",
    "euler_char",
    "list_cases",
    "verify_all",
    "NefQ2Error",
    "MalformedClassError",
    "VirtualClassError",
    "HypothesisError",
    "ReconstructionError",
]


def __getattr__(name: str) -> Any:
    """``verify_all``, read from ``verify``, which only then is loaded."""
    if name == "verify_all":
        from .verify import verify_all

        return verify_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
