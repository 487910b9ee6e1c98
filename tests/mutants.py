"""A mutation gate: each mutant breaks the package in one place, the
catalog or one help string of the command line, and a named check must
catch it.

    python tests/mutants.py

A mutant is ``(file, old text, new text, check)``: ``old`` must occur
exactly once in ``file``, and the mutant is ``old`` replaced by ``new``.
A check is one of

``("fails", argv)``
    ``python -m nefq2.cli argv`` must exit non-zero;
``("differs", argv, snapshot)``
    its exit code, stdout and stderr, rendered as ``tests/test_golden.py``
    renders them, must differ from ``tests/golden/<snapshot>.txt``;
``("tier1", file)``
    pytest on that one tier-1 file must fail.

Every mutant of ``MUTANTS`` must be caught, and every one of
``KNOWN_SURVIVORS`` must not be: a change that kills a survivor moves it
to ``MUTANTS``.  Each check must first pass on the unmutated tree, so a
check that fails for another reason kills nothing.

Everything runs in a copy of ``src/``, ``tests/`` and ``pyproject.toml``
in a temporary directory, with that copy's ``src`` as ``PYTHONPATH`` and
no bytecode written: pyproject's ``pythonpath = ["src"]`` would otherwise
put the unmutated tree first, and a cached module could outlive its
restored source.  The script uses the standard library only and exits 0
when the gate holds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CATALOG = "src/nefq2/catalog.py"
CATALOG_MAIN22 = ("differs", ("catalog", "list", "--theorem", "main22"), "readme_catalog_main22")
VERIFY_ALL = ("fails", ("verify", "all"))

MUTANTS = {
    "swap leaves mid unswapped": (
        CATALOG,
        "sub, mid = (tuple((d.swap(), m) for d, m in terms) for terms in (self.sub, self.mid))",
        "sub, mid = tuple((d.swap(), m) for d, m in self.sub), self.mid",
        CATALOG_MAIN22,
    ),
    "swap leaves a curve cokernel's support unswapped": (
        CATALOG,
        "return Display(sub, mid, replace(self.coker, support=self.coker.support.swap()) if curve else self.coker)",
        "return Display(sub, mid, self.coker)",
        ("tier1", "tests/test_catalog.py"),
    ),
    "min_rank is at least 2": (CATALOG, "return max([1] + ", "return max([2] + ", CATALOG_MAIN22),
    "kclass ignores the cokernel": (
        CATALOG,
        "coker = torsion_class(self.coker) if self.coker is not None else KClass.zero()",
        "coker = KClass.zero()",
        VERIFY_ALL,
    ),
    "_table ignores twin": (CATALOG, 'if "twin" in flags:', "if False:", CATALOG_MAIN22),
    "main22-6-1-2 loses a trivial summand": (
        CATALOG,
        "O(2,0)+O(0,1)^2+O^(r-3)",
        "O(2,0)+O(0,1)^2+O^(r-2)",
        CATALOG_MAIN22,
    ),
    "nearmax-2 has O(1,0) twice": (
        CATALOG,
        "{down}+O(1,0)+O(0,1)+O^(r-2)",
        "{down}+O(1,0)+O(1,0)+O^(r-2)",
        (
            "differs",
            ("catalog", "list", "--theorem", "nearmax", "--c1", "3,2", "--format", "json"),
            "catalog_nearmax_json",
        ),
    ),
    "a help string is shortened": (
        "src/nefq2/cli.py",
        '"splitting degree for halfmax"',
        '"splitting degree"',
        ("tier1", "tests/test_help.py"),
    ),
}

#: Mutants no check catches yet: the reconstruction check passes for any
#: flagged row with c1 (2,2) and c2 in 6..8 (ROADMAP item 15).
KNOWN_SURVIVORS = {
    "main22-10 flagged bondal=True": (
        CATALOG,
        "10     O(-2,-2)                  O^(r+1)                       0     8\n",
        "10     O(-2,-2)                  O^(r+1)                       0     8  bondal\n",
        VERIFY_ALL,
    ),
    "main22-8 flagged bondal=True": (
        CATALOG,
        "8      O(-1,-2)                  O(1,0)+O^r                    0     6  twin\n",
        "8      O(-1,-2)                  O(1,0)+O^r                    0     6  twin bondal\n",
        VERIFY_ALL,
    ),
}


def caught(root: Path, check: tuple) -> bool:
    """Whether ``check``, run in the tree at ``root``, catches that tree."""
    kind, *args = check
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if kind == "tier1":
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", args[0]]
    else:
        argv = [sys.executable, "-m", "nefq2.cli", *args[0]]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=600)
    if kind == "differs":
        out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
        rendered = f"exit {proc.returncode}\n--- stdout\n{out}--- stderr\n{err}"
        return rendered != (root / "tests" / "golden" / f"{args[1]}.txt").read_bytes().decode("utf-8")
    return proc.returncode != 0


def mutant_caught(root: Path, mutant: tuple) -> bool:
    """Apply one mutant to the tree at ``root``, run its check, and restore the file."""
    file, old, new, check = mutant
    path = root / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{file}: the text to mutate occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")
    try:
        return caught(root, check)
    finally:
        path.write_text(text, encoding="utf-8")


def gate(repo: Path) -> list[str]:
    """What breaks the gate, for the tree at ``repo``: an empty list when it holds."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(repo / name, root / name, ignore=skip)
        shutil.copy2(repo / "pyproject.toml", root / "pyproject.toml")
        checks = {mutant[3] for mutant in (*MUTANTS.values(), *KNOWN_SURVIVORS.values())}
        problems = [f"the check {check} fails on the unmutated tree" for check in checks if caught(root, check)]
        if problems:
            return problems
        problems += [f"survived: {name}" for name, mutant in MUTANTS.items() if not mutant_caught(root, mutant)]
        problems += [
            f"killed, so move it to MUTANTS: {name}"
            for name, mutant in KNOWN_SURVIVORS.items()
            if mutant_caught(root, mutant)
        ]
        return problems


if __name__ == "__main__":
    broken = gate(Path(__file__).resolve().parent.parent)
    print("\n".join(broken) or f"{len(MUTANTS)} mutants caught, {len(KNOWN_SURVIVORS)} known survivors survive")
    sys.exit(1 if broken else 0)
