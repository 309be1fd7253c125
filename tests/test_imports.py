"""Every module of the package uses each name it imports.

The package __init__ is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import sdmm

MODULES = sorted(p for p in Path(sdmm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []
