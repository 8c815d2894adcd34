"""No module of the package imports a name it never uses, and no
module-level private function or class goes unreferenced.

A plain `ast` walk stands in for a linter, so the check needs nothing
beyond the standard library. `__init__.py` is exempt from the import
check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plam"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_names():
    source = "import os, sys\nfrom typing import List, Optional as Opt\nx: List = sys.argv\n"
    assert unused_imports(source) == ["Opt", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: dict) -> list:
    """Module-level `_private` functions and classes that no statement of
    any module names, except the definition itself (so that a left-over
    recursive helper is still caught)."""
    defs, uses = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defs.append((module, own))
            uses.append((module, own, names))
    return sorted(
        f"{module}:{name}"
        for module, name in defs
        if not any(
            name in names and (m, own) != (module, name) for m, own, names in uses
        )
    )


def test_private_checker_flags_unreferenced_and_self_referenced():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\ndef _rec(n): return _rec(n - 1)\n",
        "b": "from a import _used\nx = _used()\nclass _Gone: pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_dead", "a:_rec", "b:_Gone"]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []
