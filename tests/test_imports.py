"""Every module-level import in the package is used.

A deletion that removes an import's last use must remove the import too;
this check parses each module with `ast` and names the imports no code,
annotation or `__all__` entry reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsmsched"
MODULES = sorted(PACKAGE.glob("*.py"))


def bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    return [name for node in imports for name in bound_names(node) if name not in used]


def test_the_package_has_modules():
    assert PACKAGE / "csa.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import struct\n"
        "import os.path\n"
        "from typing import Callable, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: int) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["struct", "Callable"]
