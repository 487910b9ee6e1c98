"""The mutation gate of ``tests/mutants.py``: every mutant is caught by its
check, and every known survivor survives.  It takes a few seconds, most of
them in the one tier-1 file that a mutant's check runs."""

from __future__ import annotations

from pathlib import Path

import mutants


def test_every_mutant_is_caught_and_every_known_survivor_survives():
    assert mutants.gate(Path(__file__).resolve().parent.parent) == []
