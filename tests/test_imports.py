"""Every top-level import of a magma_tits module is used in that module.

__init__.py is skipped: its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

import magma_tits

MODULES = sorted(p for p in Path(magma_tits.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of `source` that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_unused_import():
    src = "import os\nfrom math import gcd, lcm as l\nprint(gcd)\n"
    assert unused_imports(src) == [(1, "os"), (2, "l")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
