"""No module of the package imports a name it never uses, no
module-level private function or class goes unreferenced, and no public
definition is there only for callers outside the package: every public
function, class, method or property that `plam.__all__` does not export
is named by the package itself. `plam.__all__` lists the re-exported
names and no submodule.

A plain `ast` walk stands in for a linter, so the check needs nothing
beyond the standard library. `__init__.py` is exempt from the import
check: its imports are the public re-exports.
"""

import ast
import types
from pathlib import Path

import pytest

import plam

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


def _units(source: str) -> list:
    """(owner, names) for each module-level statement, where `names` holds
    every name and attribute the statement mentions. A class statement is
    split into its header and its body statements, so that a method's own
    body does not count as a use of that method; `owner` is the path of
    the definition a unit belongs to, or () for any other statement."""
    units = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            units.append(((stmt.name,), header))
            for inner in stmt.body:
                own = getattr(inner, "name", None)
                units.append(((stmt.name, own) if own else (stmt.name,), [inner]))
        elif isinstance(stmt, ast.FunctionDef):
            units.append(((stmt.name,), [stmt]))
        else:
            units.append(((), [stmt]))
    out = []
    for owner, nodes in units:
        names = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        out.append((owner, names))
    return out


def _unreferenced(sources: dict, wanted) -> list:
    """`module:path` of each definition `wanted(path)` selects that no
    statement of any module names, except the definition itself (so that
    a left-over recursive helper is still caught)."""
    units = {module: _units(source) for module, source in sources.items()}
    defs = {
        (module, owner)
        for module, module_units in units.items()
        for owner, _ in module_units
        if owner and wanted(owner)
    }
    return sorted(
        f"{module}:{'.'.join(path)}"
        for module, path in defs
        if not any(
            path[-1] in names and not (m == module and owner[: len(path)] == path)
            for m, module_units in units.items()
            for owner, names in module_units
        )
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_defs(sources: dict) -> list:
    """Module-level `_private` functions and classes that nothing names."""
    return _unreferenced(sources, lambda path: len(path) == 1 and _private(path[0]))


def test_private_checker_flags_unreferenced_and_self_referenced():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\ndef _rec(n): return _rec(n - 1)\n",
        "b": "from a import _used\nx = _used()\nclass _Gone: pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_dead", "a:_rec", "b:_Gone"]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def unreferenced_public_defs(sources: dict, exported) -> list:
    """Public definitions that only callers outside the package could use:
    module-level functions and classes not in `exported`, and methods or
    properties of any module-level class, that nothing in `sources` names."""

    def wanted(path):
        return not path[-1].startswith("_") and (len(path) > 1 or path[0] not in exported)

    return _unreferenced(sources, wanted)


def test_public_checker_flags_test_only_names():
    sources = {
        "a": (
            "def api(): pass\ndef helper(): pass\ndef orphan(): pass\n"
            "class Box:\n"
            "    def used(self): return self.rec()\n"
            "    def rec(self): return self.rec()\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    def __len__(self): return self.size\n"
        ),
        "b": "from a import helper\nx = helper().used()\n",
    }
    assert unreferenced_public_defs(sources, {"api", "Box"}) == ["a:orphan"]
    assert unreferenced_public_defs(sources, {"api"}) == ["a:Box", "a:orphan"]
    sources["a"] = sources["a"].replace("return self.rec()\n    def rec", "return 0\n    def rec")
    assert unreferenced_public_defs(sources, {"api", "Box"}) == ["a:Box.rec", "a:orphan"]


def test_no_test_only_public_api():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_public_defs(sources, set(plam.__all__)) == []


def test_all_lists_the_reexports_and_no_module():
    bound = {name for name in dir(plam) if not name.startswith("_")}
    modules = {name for name in bound if isinstance(getattr(plam, name), types.ModuleType)}
    assert sorted(plam.__all__) == sorted(bound - modules)
