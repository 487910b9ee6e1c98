"""The documents pinned by sha256, made through ``main()``.

Each line of ``tests/pins.txt`` that is not a comment holds the sha256 of
one command's stdout, its length in bytes and the command's arguments.
The CI workflow runs the same table through the ``nefq2`` console script,
so the pins live in one place.
"""

from __future__ import annotations

import contextlib
import hashlib
from pathlib import Path

import pytest

from nefq2.cli import main

_LINES = (Path(__file__).parent / "pins.txt").read_text().splitlines()
#: (sha256, length, argv) of each pinned document
PINS = [
    (sha, int(length), argv.split())
    for sha, length, argv in (line.split(maxsplit=2) for line in _LINES if not line.startswith("#"))
]


class _Digest:
    """A stdout that keeps only the length and sha256 of what is written."""

    def __init__(self) -> None:
        self.length, self.sha = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.length += len(data)
        self.sha.update(data)
        return len(text)

    def flush(self) -> None:
        pass


def test_the_table_pins_five_documents():
    assert len(PINS) == 5 and all(len(sha) == 64 for sha, _, _ in PINS)


@pytest.mark.parametrize("sha,length,argv", PINS, ids=[" ".join(argv) for _, _, argv in PINS])
def test_pinned_document(sha, length, argv):
    out = _Digest()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert (out.length, out.sha.hexdigest()) == (length, sha)
