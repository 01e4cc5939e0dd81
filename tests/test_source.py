"""Static checks over the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qsdc3"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# (module, name) pairs a module may import without using, with the reason.
UNUSED_ALLOWED = {
    ("protocol", "measure_qubit"): "the traced benchmark (perfbench/layers.py) patches it in protocol",
}


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


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    unused = {name for name in unused_imports(path.read_text()) if (path.stem, name) not in UNUSED_ALLOWED}
    assert not unused, "%s imports %s without using it" % (path.name, ", ".join(sorted(unused)))


def test_each_allowed_unused_import_is_still_unused():
    # A stale entry would hide the next unused import of that name.
    for module, name in UNUSED_ALLOWED:
        assert name in unused_imports((PACKAGE / (module + ".py")).read_text()), (module, name)
