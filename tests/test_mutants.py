"""The mutation gate of ``tests/mutants.py``: every mutant is caught by its
check, and every known survivor survives.  It takes several seconds, most
of them in the tier-1 files that the mutants' checks run, so CI runs the
gate as a step of its own."""

from __future__ import annotations

from pathlib import Path

import mutants


def test_every_mutant_is_caught_and_every_known_survivor_survives():
    assert mutants.gate(Path(__file__).resolve().parent.parent) == []
