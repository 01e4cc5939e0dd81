"""Static checks over the package source, with the standard library's ast and re."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qsdc3

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qsdc3"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))
SOURCES = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def unused_imports(source):
    """The names ``source`` imports and never reads, ``__future__`` aside."""
    imported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau as turn\n"
        "print(np.pi, turn)\n"
    )
    assert unused_imports(source) == {"os", "pi"}


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=[path.stem for path in MODULES] + ["tests/" + path.stem for path in TEST_MODULES]
)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, "%s imports %s without using it" % (path.name, ", ".join(sorted(unused)))



def package_imports(source):
    """The package modules ``source`` imports: ``x`` for ``from .x import
    ...``, ``from . import x`` and ``import qsdc3.x``."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imported.add(node.module.partition(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qsdc3."))
    return imported


def import_cycle(graph):
    """A cycle in ``graph``, which maps each module to the modules it
    imports, as the modules along it with the first repeated at the end;
    None when there is none."""
    acyclic = set()

    def visit(module, path):
        if module in path:
            return path[path.index(module) :] + [module]
        if module not in acyclic:
            for imported in sorted(graph.get(module, ())):
                cycle = visit(imported, path + [module])
                if cycle:
                    return cycle
            acyclic.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return None


def test_the_check_finds_import_cycles():
    sources = {
        "a": "import numpy\nimport qsdc3.b\n",
        "b": "from . import c as _c\nfrom .d.e import f\n",
        "c": "from .a import g\nfrom math import pi\n",
        "d": "import os.path\n",
    }
    graph = {module: package_imports(source) for module, source in sources.items()}
    assert graph == {"a": {"b"}, "b": {"c", "d"}, "c": {"a"}, "d": set()}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    graph["c"] = {"d"}
    assert import_cycle(graph) is None


def test_the_package_imports_form_no_cycle():
    # A module that imports one which imports it back loads only in one
    # order, and the two hold one layer between them.
    cycle = import_cycle({module: package_imports(source) for module, source in SOURCES.items()})
    assert cycle is None, "the package imports form a cycle: %s" % " -> ".join(cycle)


def private_definitions(source):
    """The private names (``_x``, dunders aside) ``source`` binds at module
    level with a ``def``, a ``class`` or an assignment."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def read_names(source):
    """Every name ``source`` reads, as a variable or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_the_check_finds_unread_private_names():
    source = (
        "import helper\n_A, (_B, C) = 1, (2, 3)\n_D: int = 4\n__all__ = []\n"
        "def _f(): return _A\nclass _G: pass\ndef _h(): helper._D = 5\n"
        "helper._G\n"
    )
    assert private_definitions(source) == {"_A", "_B", "_D", "_f", "_G", "_h"}
    assert private_definitions(source) - read_names(source) == {"_B", "_D", "_f", "_h"}


def test_every_private_name_is_read_in_the_package():
    # A private name nothing in the package reads is dead code (tests and
    # the benchmark may read it too, but do not keep it alive).
    read = set().union(*map(read_names, SOURCES.values()))
    unread = {
        "%s.%s" % (module, name)
        for module, source in SOURCES.items()
        for name in private_definitions(source) - read
    }
    assert not unread, "defined and never read: %s" % ", ".join(sorted(unread))


def imported_private_names(source):
    """The private names (``_x``, dunders aside) ``source`` takes from
    another module: ``from module import _x``, or ``name._x`` on a name that
    an import binds."""
    tree = ast.parse(source)
    bound = set()
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
            taken.update(alias.name for alias in node.names if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            taken.add("%s.%s" % (node.value.id, node.attr))
    return {name for name in taken if name.rpartition(".")[2].startswith("_") and "__" not in name}


def test_the_check_finds_imported_private_names():
    source = (
        "import numpy as np\nfrom . import protocol as _p\nfrom .harness import _LIMIT, Public\n"
        "from .states import __doc__\n_OWN = 1\n"
        "_p._round, _p.run, np._core, Public._slot, _OWN._x, np.__name__\n"
    )
    assert imported_private_names(source) == {"_LIMIT", "_p._round", "np._core", "Public._slot"}


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_module_imports_another_modules_private_name(module):
    # A private name is its module's to change; a reader elsewhere holds a
    # second copy of the fact it stands for.
    taken = imported_private_names(SOURCES[module])
    assert not taken, "%s takes private names of other modules: %s" % (module, ", ".join(sorted(taken)))


# A Sphinx cross-reference in the package source: ``:func:`name```, with
# ``:class:``, ``:meth:`` or ``:attr:`` in place of ``:func:``.
ROLE = re.compile(r":(?:func|class|meth|attr):`~?([\w.]+)`")


def unresolved_roles(module, source):
    """The targets of the Sphinx roles in ``source`` that name nothing the
    package defines: a target is looked up in ``module``, or in the package
    when it starts with ``qsdc3.``, one dotted part at a time."""
    unresolved = set()
    for target in ROLE.findall(source):
        if target.startswith("qsdc3."):
            module_name, _, rest = target[len("qsdc3.") :].partition(".")
            owner, parts = importlib.import_module("qsdc3." + module_name), rest.split(".")
        else:
            owner, parts = importlib.import_module("qsdc3." + module), target.split(".")
        for part in parts:
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add(target)
    return unresolved


def test_the_check_finds_unresolved_roles():
    source = (
        '"""See :func:`leaf_weights`, :func:`_undefined`, :meth:`MessageTriple.random`,\n'
        ":meth:`MessageTriple.unknown`, :class:`~qsdc3.states.TransitionTable` and\n"
        ':class:`~qsdc3.states.Tree`."""\n'
    )
    assert unresolved_roles("protocol", source) == {"_undefined", "MessageTriple.unknown", "qsdc3.states.Tree"}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_role_names_a_definition(path):
    unresolved = unresolved_roles(path.stem, path.read_text())
    assert not unresolved, "%s refers to %s, which the package does not define" % (
        path.name,
        ", ".join(sorted(unresolved)),
    )


def removed_names(docstring):
    """The names the bullets of a docstring's "Removed" section list: each
    ````name```` before a bullet's first colon."""
    section = docstring[docstring.index("\nRemoved\n-------\n") :]
    names = []
    for line in section.splitlines():
        if line.startswith("* "):
            names += re.findall(r"``([\w.]+)``", line.split(":", 1)[0])
    return names


def test_the_check_reads_the_removed_names():
    docstring = (
        "Summary.\n\nRemoved\n-------\nThe old names:\n\n"
        "* ``old``: ``new(x)``\n* ``a.b``, ``C.d``: ``e``\n  ``wrapped``: more\n"
    )
    assert removed_names(docstring) == ["old", "a.b", "C.d"]


def test_no_removed_name_is_defined():
    # The package docstring names each deleted public name.  None of them
    # is reachable from the package or any of its modules, and the package
    # exports nothing under a removed name's last part.
    names = removed_names(qsdc3.__doc__)
    assert {"TransitionTable.measure", "TransitionTable.readout", "TransitionTable.bell"} <= set(names)
    owners = [qsdc3] + [importlib.import_module("qsdc3." + path.stem) for path in MODULES]
    defined = set()
    for name in names:
        for owner in owners:
            target = owner
            for part in name.split("."):
                target = getattr(target, part, None)
            if target is not None:
                defined.add(name)
        if hasattr(qsdc3, name.rpartition(".")[2]):
            defined.add(name)
    assert not defined, "removed yet still defined: %s" % ", ".join(sorted(defined))


# A dotted double-backtick reference in the package source, such as
# ``protocol.leaf_weights`` or ``TransitionTable.attach``.
REFERENCE = re.compile(r"``(\w+(?:\.\w+)+)``")


def package_owners():
    """The package's modules by name, and the classes they define by name:
    the first parts of a reference that the check resolves."""
    modules = {path.stem: importlib.import_module("qsdc3." + path.stem) for path in MODULES}
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    return {**modules, **classes}


def unresolved_references(source, owners):
    """The dotted double-backtick references in ``source`` whose first part
    is one of ``owners`` and whose later parts name nothing on it, looked up
    one dotted part at a time.  A reference with another first part
    (``numpy.random.Generator``, ``table.compiled``) is not checked."""
    unresolved = set()
    for reference in REFERENCE.findall(source):
        first, *parts = reference.split(".")
        if first not in owners:
            continue
        owner = owners[first]
        for part in parts:
            if not hasattr(owner, part):
                unresolved.add(reference)
                break
            owner = getattr(owner, part)
    return unresolved


def test_the_check_finds_unresolved_references():
    source = (
        '"""See ``protocol.leaf_weights``, ``protocol.undefined``, ``TransitionTable.attach``,\n'
        "``TransitionTable.readout_points``, ``AttackModel.beta_sq``, ``Basis.Z.name``,\n"
        '``numpy.random.Generator``, ``table.compiled`` and ``protocol``."""\n'
    )
    owners = package_owners()
    assert unresolved_references(source, owners) == {"protocol.undefined", "TransitionTable.readout_points"}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_dotted_reference_names_a_definition(path):
    unresolved = unresolved_references(path.read_text(), package_owners())
    assert not unresolved, "%s refers to %s, which the package does not define" % (
        path.name,
        ", ".join(sorted(unresolved)),
    )
