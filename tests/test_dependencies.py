"""The package runs on the standard library alone: ``dependencies = []``;
and its modules import each other in one order."""

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


#: The package's modules, lowest layer first: a module imports, at its top
#: level, only modules before it.  An import of a later module waits inside
#: the function that needs it, or under ``TYPE_CHECKING``.
LAYERS = (
    "_value", "errors", "picard", "cohomology", "ktheory", "quiver",
    "bondal", "catalog", "verify", "report_json", "cli",
)


def _top_level(body: list[ast.stmt]):
    """The statements that run when the module is imported: function bodies
    and ``if TYPE_CHECKING:`` blocks are left out."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _top_level(node.orelse)
            continue
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _top_level(getattr(node, block, []))


def test_a_module_imports_only_lower_layers_at_its_top_level():
    sources = {path.stem: path for path in (ROOT / "src" / "nefq2").glob("*.py") if path.stem != "__init__"}
    assert sorted(sources) == sorted(LAYERS)
    upward = []
    for name, path in sources.items():
        for node in _top_level(ast.parse(path.read_text(), str(path)).body):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            # "from .x import y" names module x; "from . import x" names x, unless x is __version__
            imported = [node.module.partition(".")[0]] if node.module else [a.name for a in node.names]
            upward += [(name, m) for m in imported if m != "__version__" and LAYERS.index(m) >= LAYERS.index(name)]
    assert upward == []
