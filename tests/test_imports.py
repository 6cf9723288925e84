"""Import hygiene: no module-level import binds a name its module never
uses, and every public export resolves.

No linter ships with the project, so this parses every library and test
module with ``ast``.  ``from __future__`` imports and the names a module
lists in ``__all__`` (the package's re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

import boxstab

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "boxstab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(tree):
    """(name, line) of every module-level import binding."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield (a.asname or a.name), node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{name} (line {line})" for name, line in _bound_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_every_public_export_resolves():
    # a stale re-export fails here, not in a user's ``from boxstab import *``
    assert [name for name in boxstab.__all__ if not hasattr(boxstab, name)] == []
