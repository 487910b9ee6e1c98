"""Run the usage examples embedded in the library docstrings."""

from __future__ import annotations

import doctest

import pytest

from nefq2 import _value, bondal, catalog, cohomology, ktheory, picard, quiver

MODULES = [_value, picard, cohomology, ktheory, quiver, bondal, catalog]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no examples"
    assert result.failed == 0
