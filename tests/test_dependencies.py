"""The package runs on the standard library alone: ``dependencies = []``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_imports_only_the_standard_library():
    assert "\ndependencies = []\n" in (ROOT / "pyproject.toml").read_text()
    sources = sorted((ROOT / "src" / "nefq2").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            top = {name.partition(".")[0] for name in names}
            outside += [(path.name, name) for name in sorted(top - sys.stdlib_module_names - {"__future__"})]
    assert outside == []
