"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hhverify"


def unused_imports(source: str) -> list:
    """The names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n") == [
        (1, "os"),
        (3, "pi"),
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list:
    """(line, module, name) of each private name the source imports from a
    package module: ``from .mod import _name``."""
    return sorted(
        (node.lineno, node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("hhverify"))
        for alias in node.names
        if _private(alias.name)
    )


def test_private_import_is_found():
    source = "from .a import _x, y\nfrom hhverify.b import _z\nfrom . import c\nfrom os import _exit\n"
    assert private_imports(source) == [(1, "a", "_x"), (2, "hhverify.b", "_z")]


def test_no_private_cross_module_imports():
    """A module reads another's private names only through its public ones."""
    found = {p.name: private_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def private_definitions(tree) -> list:
    """(name, node) for each private module-level function, class or
    constant of a module, and each private method of its classes."""
    found = []
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        found += [(name, node) for name in names if _private(name)]
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef) and _private(m.name)]
    return found


def dead_private_names(sources: dict) -> list:
    """(file, line, name) of each private definition in ``sources`` (file
    name -> text) that no source reads outside the definition itself: a
    name, an attribute or an imported name counts as a read."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    reads: dict = {}  # name -> [(file, line)]
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((file, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append((file, node.lineno))
    dead = []
    for file, tree in trees.items():
        for name, node in private_definitions(tree):
            span = range(node.lineno, node.end_lineno + 1)
            if all(f == file and line in span for f, line in reads.get(name, [])):
                dead.append((file, node.lineno, name))
    return sorted(dead)


def test_dead_private_name_is_found():
    sources = {
        "a.py": "_USED = 1\n_UNUSED = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
        "class C:\n    def _m(self):\n        return _USED\n    def _dead(self):\n        pass\n",
        "b.py": "from .a import C\nC()._m()\n",
    }
    assert dead_private_names(sources) == [("a.py", 2, "_UNUSED"), ("a.py", 4, "_rec"), ("a.py", 10, "_dead")]


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
