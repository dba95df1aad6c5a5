"""Source hygiene: every name a module of the package imports is used, every
private module-level function or class is referenced, and so is every public
one of the kernel module gq.  No module certifies by `assert`, which
`python -O` strips."""

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


def definitions_and_references(trees):
    """The module-level functions and classes, as (tree index, name), and the
    names that the top-level statements read, as a Name or an attribute,
    where a definition's reads of its own name do not count."""
    defined = []
    referenced = set()
    for t, tree in enumerate(trees):
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((t, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def unreferenced_private(trees):
    """Private (one leading underscore) module-level functions and classes
    that no top-level statement of any module but their own definition
    names."""
    defined, referenced = definitions_and_references(trees)
    return sorted({name for _, name in defined
                   if name.startswith("_") and not name.startswith("__")} - referenced)


def unreferenced_public(trees, module):
    """Public module-level functions and classes of trees[module] that no
    top-level statement of any module but their own definition names."""
    defined, referenced = definitions_and_references(trees)
    return sorted({name for t, name in defined
                   if t == module and not name.startswith("_")} - referenced)


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


def test_every_public_gq_definition_is_used_in_the_package():
    # the tests alone keep no kernel helper alive
    paths = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    assert unreferenced_public(trees, paths.index(SRC / "gq.py")) == []


def test_unreferenced_public_is_found():
    a = ast.parse("class Used:\n    pass\n"
                  "def dead(k):\n    return dead(k - 1) if k else Used()\n"
                  "def inner():\n    return 1\n"
                  "def outer():\n    return inner()\n"
                  "def _private():\n    pass\n")
    b = ast.parse("from .a import outer\nx = outer()\n"
                  "def spare():\n    return 2\n")
    assert unreferenced_public([a, b], 0) == ["dead"]


def assert_lines(tree):
    """Line numbers of the assert statements anywhere in the module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    # every certificate must still raise under python -O
    assert assert_lines(ast.parse(path.read_text())) == []


def test_assert_statement_is_found():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'neg'\n"
                     "    raise AssertionError('no assert statement')\n")
    assert assert_lines(tree) == [3]
