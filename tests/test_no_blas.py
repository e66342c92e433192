"""No module in the package calls a BLAS product.

A BLAS kernel sums in an order OpenBLAS picks per CPU, so a total priced
with one differs in its last bits from one CPU to another, and with it the
search's path.  The objective is summed left to right instead
(`costing.energy_cost`); this check parses each module with `ast` and
names every matrix product, BLAS-backed call and `linalg` use it finds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsmsched"
MODULES = sorted(PACKAGE.glob("*.py"))

PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(source: str) -> list[str]:
    """`line: what` of each BLAS product in a module's source, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCTS:
                found.append((node, f"{name}()"))
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            if any("linalg" in name.split(".") for name in names):
                found.append((node, "import linalg"))
    found.sort(key=lambda use: (use[0].lineno, use[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


def test_the_package_has_modules():
    assert PACKAGE / "costing.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_calls_a_blas_product(path):
    assert blas_uses(path.read_text()) == []


def test_the_check_finds_every_blas_product():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "def f(a, b, price, rows):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    e = price.dot(a) + np.vdot(a, b) + np.inner(a, b)\n"
        "    g = np.matmul(a, b) + np.tensordot(a, b) + np.einsum('i,i', a, b)\n"
        "    h = np.linalg.norm(a)\n"
        "    return [dot(r) for r in rows], a * b, np.cumsum(a * b), sum(map(abs, rows))\n"
    )
    assert blas_uses(source) == [
        "2: import linalg", "4: @", "5: @", "6: dot()", "6: vdot()", "6: inner()",
        "7: matmul()", "7: tensordot()", "7: einsum()", "8: linalg", "9: dot()",
    ]
