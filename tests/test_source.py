"""Source hygiene: every name a module of the package imports is used."""

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
