"""The demos print their snapshots in ``tests/golden/demo_<stem>.txt`` byte
for byte, and the README's library example runs as documented."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nefq2

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"

#: The package namespace README documents: the names its library example
#: imports, the version and the error classes.
DOCUMENTED = {
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
}


def test_there_are_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_every_demo_snapshot_has_a_demo():
    assert {p.stem for p in GOLDEN.glob("demo_*.txt")} == {f"demo_{d.stem}" for d in DEMOS}


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_package_namespace_is_the_documented_set():
    assert len(nefq2.__all__) == len(DOCUMENTED)
    assert set(nefq2.__all__) == DOCUMENTED
    for name in DOCUMENTED:
        assert hasattr(nefq2, name)
