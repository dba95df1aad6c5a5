"""Source hygiene: every name a module of the package imports is used, and
every private module-level function or class is referenced."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hodge_degen"


def unused_imports(tree):
    """Names bound by an import anywhere in the module and never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("import os, json\nfrom .gq import rank, ZERO as Z\n"
                     "def f():\n    from .roots import orbit_dims\n    return json.dumps(Z)\n")
    assert unused_imports(tree) == ["orbit_dims", "os", "rank"]


def unreferenced_private(trees):
    """Private (one leading underscore) module-level functions and classes
    that no top-level statement of any module but their own definition
    names, as a Name or an attribute."""
    defined = []
    referenced = set()
    for tree in trees:
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and not stmt.name.startswith("__"):
                own = stmt.name
                defined.append(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(set(defined) - referenced)


def test_every_private_definition_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private(trees) == []


def test_unreferenced_private_is_found():
    a = ast.parse("def _used():\n    return 1\n"
                  "def _dead(k):\n    return _dead(k - 1) if k else _used()\n"
                  "class _Gone:\n    pass\n"
                  "def __getattr__(name):\n    raise AttributeError(name)\n")
    b = ast.parse("from .a import _helper\nx = _helper()\n"
                  "def _helper():\n    return 2\n")
    assert unreferenced_private([a, b]) == ["_Gone", "_dead"]
