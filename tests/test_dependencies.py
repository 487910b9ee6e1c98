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

#: The imports of a later module that wait inside a function, each as
#: (module, imported module, function): these and no others.  A new one
#: fails here, and the change that deletes one deletes its entry.
DEFERRED = {
    ("catalog", "verify", "CaseSpec._certificate"),
    ("catalog", "verify", "__getattr__"),  # the benchmark's shim, which ROADMAP item 1a deletes
    ("ktheory", "catalog", "line_label"),
}


def _relative_imports(body: list[ast.stmt], function: str | None = None, prefix: str = ""):
    """(function, node) for each ``from . import`` statement of ``body``, where
    function is the qualified name of the function it runs in, or None when
    it runs at import; ``if TYPE_CHECKING:`` blocks are left out."""
    for node in body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _relative_imports(node.orelse, function, prefix)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            yield function, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _relative_imports(node.body, f"{prefix}{node.name}", f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _relative_imports(node.body, function, f"{prefix}{node.name}.")
        else:
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _relative_imports(getattr(node, block, []), function, prefix)


def _upward_imports() -> list[tuple[str, str, str | None]]:
    """(module, imported module, function) for each import of a module at or
    after the importer's own layer; function is None at the top level."""
    sources = {path.stem: path for path in (ROOT / "src" / "nefq2").glob("*.py") if path.stem != "__init__"}
    assert sorted(sources) == sorted(LAYERS)
    upward = []
    for name, path in sources.items():
        for function, node in _relative_imports(ast.parse(path.read_text(), str(path)).body):
            # "from .x import y" names module x; "from . import x" names x, unless x is __version__
            imported = [node.module.partition(".")[0]] if node.module else [a.name for a in node.names]
            later = [m for m in imported if m != "__version__" and LAYERS.index(m) >= LAYERS.index(name)]
            upward += [(name, m, function) for m in later]
    return upward


def test_a_module_imports_only_lower_layers_at_its_top_level():
    assert [(name, m) for name, m, function in _upward_imports() if function is None] == []


def test_a_function_imports_a_later_module_only_where_listed():
    assert {upward for upward in _upward_imports() if upward[2] is not None} == DEFERRED
