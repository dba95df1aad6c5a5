"""Source hygiene: every name a module of the package imports is used, and
every module-level function or class, and every method of such a class, is
referenced, but for the command functions and an exact list of public names
that only tests use; a method only counts as referenced when it is read as
an attribute.  Every `__slots__` field is read as an attribute, but for an
exact list.  No module certifies by `assert`, which `python -O` strips.  No
class but gq.Immutable defines `__setattr__`: the value types inherit its
guard, and every one of them refuses an assignment."""

import argparse
import ast
from pathlib import Path

import pytest

from hodge_degen import cli
from hodge_degen.classify import ht_construct, minimal_types
from hodge_degen.diagrams import DiagramSpec
from hodge_degen.gq import Immutable, MatrixGQ, Subspace, gq
from hodge_degen.hodge import HodgeNumbers, model_phs
from hodge_degen.lmhs import adjoint_lmhs, deligne_splitting
from hodge_degen.roots import GradingElement, build_root_system, named_involution

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hodge_degen"

# The public names that only tests use, each with a test that uses it and the
# reason it stays; a method is named Class.method.  A name that gains a
# caller in the package, or is deleted, comes off the list.
TEST_ONLY = {
    # the characteristic vector of the principal cases, which the planned
    # check of a datum's orbit numbers against roots.orbit_dims will read
    "principal_neutral_char": "test_classify.py::test_principal_families",
    # builds the pure Hodge datum files that CI passes to `validate`
    "model_phs": "test_hodge.py::test_model_phs_is_valid",
    # small gq conveniences for building and comparing test data
    "Subspace.from_vectors": "test_gq.py::test_modular_dimension_law",
    "MatrixGQ.trace": "test_gq.py::test_trace_and_flatten",
    "MatrixGQ.flatten": "test_gq.py::test_trace_and_flatten",
}

# The `__slots__` fields that no module reads, each with the reason it stays.
# A field that gains a reader, or is deleted, comes off the list.
UNREAD_SLOTS = {
    # the frame P, the form Q' = P^T Q P and the elements X_ab of g = End(V, Q)
    # on V: the planned G_R-orbit of the reduced limit in the compact dual
    # reads k in this frame
    name: "the G_R-orbit computation reads k in this frame"
    for name in ("AdjointLmhs.frame", "AdjointLmhs.form", "AdjointLmhs.elements")
}


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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _short(name):
    # Class.method -> method
    return name.rsplit(".", 1)[-1]


def definitions_and_references(trees):
    """The module-level functions and classes, and the methods of those
    classes but the dunders, as (tree index, name) with a method named
    Class.method; and the names that the top-level statements read, a Name
    as itself and an attribute as "." + its name.  A definition's reads of
    its own name do not count, nor a class's reads of its own name anywhere
    in its body."""
    defined = []
    referenced = set()
    for t, tree in enumerate(trees):
        for stmt in tree.body:
            parts = [((), stmt)]
            if isinstance(stmt, ast.FunctionDef):
                defined.append((t, stmt.name))
                parts = [((stmt.name,), stmt)]
            elif isinstance(stmt, ast.ClassDef):
                defined.append((t, stmt.name))
                own = (stmt.name,)
                parts = [(own, node) for node in stmt.bases + stmt.keywords
                         + stmt.decorator_list]
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        defined.append((t, stmt.name + "." + item.name))
                        parts.append((own + (item.name,), item))
                    else:
                        parts.append((own, item))
            for own, part in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        name, read = node.id, node.id
                    elif isinstance(node, ast.Attribute):
                        name, read = node.attr, "." + node.attr
                    else:
                        continue
                    if name not in own:
                        referenced.add(read)
    return defined, referenced


def unreferenced(trees):
    """The module-level functions, classes and methods that no top-level
    statement of any module but their own definition names: a method by an
    attribute, a module-level definition by a Name or an attribute."""
    defined, referenced = definitions_and_references(trees)

    def used(name):
        return "." + _short(name) in referenced or ("." not in name and name in referenced)
    return sorted({name for _, name in defined if not used(name)})


def unreferenced_private(trees):
    """The unreferenced definitions with one leading underscore."""
    return [name for name in unreferenced(trees)
            if _short(name).startswith("_") and not _is_dunder(_short(name))]


def unreferenced_public(trees):
    """The unreferenced definitions with no leading underscore."""
    return [name for name in unreferenced(trees) if not _short(name).startswith("_")]


def test_every_private_definition_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private(trees) == []


def test_unreferenced_private_is_found():
    a = ast.parse("def _used():\n    return 1\n"
                  "def _dead(k):\n    return _dead(k - 1) if k else _used()\n"
                  "class _Gone:\n    pass\n"
                  "class Kept:\n    def _step(self):\n        return self._step()\n"
                  "    def __len__(self):\n        return 0\n"
                  "def __getattr__(name):\n    raise AttributeError(name)\n")
    b = ast.parse("from .a import _helper\nx = _helper(Kept())\n"
                  "def _helper():\n    return 2\n")
    assert unreferenced_private([a, b]) == ["Kept._step", "_Gone", "_dead"]


def test_every_public_definition_is_used_in_the_package():
    # main finds cmd_<name> by the subcommand <name>; beyond those, the tests
    # alone keep exactly the TEST_ONLY names alive
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = {"cmd_" + name.replace("-", "_") for name in subparsers.choices}
    assert set(unreferenced_public(trees)) - commands == set(TEST_ONLY)


def test_each_test_only_name_has_a_test_that_uses_it():
    for name, where in TEST_ONLY.items():
        path, test = where.split("::")
        tree = ast.parse((TESTS / path).read_text())
        fn = next((stmt for stmt in tree.body
                   if isinstance(stmt, ast.FunctionDef) and stmt.name == test), None)
        assert fn is not None, where
        assert _short(name) in {node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(fn)
                        if isinstance(node, (ast.Name, ast.Attribute))}, where


def test_method_named_like_a_local_is_found():
    # a local variable `row` read as a Name does not keep the method `row`
    a = ast.parse("class M:\n    def row(self, i):\n        return i\n"
                  "    def col(self, j):\n        return j\n"
                  "def f(m, rows):\n    return [m.col(row) for row in rows]\n")
    b = ast.parse("from .a import M, f\nx = f(M(), [1])\n")
    assert unreferenced_public([a, b]) == ["M.row"]


def test_unreferenced_public_is_found():
    a = ast.parse("class Used:\n"
                  "    def called(self):\n        return Used()\n"
                  "    def recursive(self, k):\n        return self.recursive(k - 1)\n"
                  "    def oracle(self):\n        return self.called()\n"
                  "    def __eq__(self, other):\n        return True\n"
                  "def dead(k):\n    return dead(k - 1) if k else Used()\n"
                  "def inner():\n    return 1\n"
                  "def outer():\n    return inner()\n"
                  "def _private():\n    pass\n")
    b = ast.parse("from .a import outer\nx = outer()\n"
                  "def spare():\n    return 2\n")
    assert unreferenced_public([a, b]) == ["Used.oracle", "Used.recursive", "dead", "spare"]


def unread_slots(trees):
    """The `__slots__` fields of the module-level classes, as Class.field,
    that no module reads as an attribute."""
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = set()
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in stmt.targets)):
                    fields.update(cls.name + "." + field
                                  for field in ast.literal_eval(stmt.value))
    return sorted(name for name in fields if _short(name) not in read)


def test_every_slot_is_read():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert unread_slots(trees) == sorted(UNREAD_SLOTS)


def test_unread_slot_is_found():
    # a field written by object.__setattr__ and read only as a local Name,
    # or only written, is unread; one read as an attribute anywhere is not
    a = ast.parse("class P:\n    __slots__ = ('n', 'spare', 'kept')\n"
                  "    def __init__(self, n, spare, kept):\n"
                  "        object.__setattr__(self, 'n', n)\n"
                  "        object.__setattr__(self, 'spare', spare)\n"
                  "        self.kept = kept\n"
                  "        print(spare)\n"
                  "class Empty:\n    __slots__ = ()\n")
    b = ast.parse("def f(p):\n    return p.n\n")
    assert unread_slots([a, b]) == ["P.kept", "P.spare"]


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


def setattr_classes(trees):
    """The classes, anywhere in the modules, whose body defines `__setattr__`."""
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                          for item in node.body))


def test_only_the_base_defines_setattr():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert setattr_classes(trees) == ["Immutable"]


def test_setattr_class_is_found():
    tree = ast.parse("class Immutable:\n"
                     "    def __setattr__(self, *a):\n        raise AttributeError\n"
                     "class Value(Immutable):\n    __slots__ = ('x',)\n"
                     "class Own:\n    def __setattr__(self, name, v):\n        pass\n"
                     "def f():\n    class Inner:\n        def __setattr__(self, *a):\n"
                     "            pass\n    return Inner\n")
    assert setattr_classes([tree]) == ["Immutable", "Inner", "Own"]


def value_instances():
    """One instance of every value type of the package."""
    d = model_phs(HodgeNumbers(2, (1, 1, 1)))
    L = ht_construct(2, HodgeNumbers(2, (1, 1, 1)))
    rs = build_root_system("G", 2)
    return [gq(1), MatrixGQ.identity(2), Subspace.full(2), d.polarization, d.filtration,
            d, HodgeNumbers(2, (1, 1, 1)), L.W, L, deligne_splitting(L), adjoint_lmhs(L),
            minimal_types(2, HodgeNumbers(2, (1, 1, 1)))[0], rs, GradingElement((1, 1)),
            named_involution(rs, "compact"), DiagramSpec([[0, 0, 1]])]


def test_every_value_type_has_an_instance():
    assert {type(x) for x in value_instances()} == set(Immutable.__subclasses__())


@pytest.mark.parametrize("value", value_instances(), ids=lambda x: type(x).__name__)
def test_value_types_are_immutable(value):
    # a field, and a name that is no field, both refuse the assignment
    for name in (type(value).__slots__[0], "spare"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % type(value).__name__):
            setattr(value, name, None)
