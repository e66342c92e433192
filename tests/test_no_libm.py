"""No module in the package calls a libm function.

Neither C nor IEEE 754 requires `hypot`, `exp`, `log`, `pow` or the
trigonometric functions to be correctly rounded, so their last bit may
differ from one libm to another, and with it the objective and the
search's path.  +, -, *, / and sqrt are correctly rounded everywhere, so
the package takes magnitudes as the sqrt of a sum of squares and
tan(acos(pf)) as sqrt(1 - pf * pf) / pf.  This check parses each module
with `ast` and names every call of a libm-backed `math` or numpy function,
every import of one, and every `**` whose operands are not both number
literals (on floats, `**` is libm's `pow`).  `sqrt`, `isfinite`, `ceil`,
`comb` and `prod` are exact and allowed.
"""

import ast

import pytest

from test_no_blas import MODULES

LIBM = {
    "hypot",
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "pow", "power", "float_power", "cbrt",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "arcsin", "arccos", "arctan", "arctan2",
    "sinh", "cosh", "tanh", "asinh", "acosh", "atanh", "arcsinh", "arccosh", "arctanh",
    "erf", "erfc", "gamma", "lgamma",
}


def _literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def libm_uses(source: str) -> list[str]:
    """`line: what` of each libm use in a module's source, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in LIBM:
                found.append((node, f"{name}()"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy", "cmath"):
            found += [(node, f"import {alias.name}") for alias in node.names
                      if alias.name in LIBM]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
              and not (isinstance(node, ast.BinOp)
                       and _literal(node.left) and _literal(node.right))):
            found.append((node, "**"))
    found.sort(key=lambda use: (use[0].lineno, use[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_calls_libm(path):
    assert libm_uses(path.read_text()) == []


def test_the_check_finds_every_libm_call():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from math import acos, sqrt\n"
        "def f(x, pf, re, im):\n"
        "    q = math.tan(acos(pf)) + np.hypot(re, im) + x ** 2\n"
        "    x **= 0.5\n"
        "    y = math.sqrt(1.0 - pf * pf) / pf + np.sqrt(re * re + im * im) + 2.0**53 + -2**-3\n"
        "    z = math.ceil(x) + math.comb(5, 2) + math.prod(im) + math.isfinite(y) + sqrt(x)\n"
        "    return pow(x, 3) + np.float_power(x, 2) + numpy.arctan2(im, re), q, y, z\n"
    )
    assert libm_uses(source) == [
        "3: import acos", "5: tan()", "5: acos()", "5: hypot()", "5: **", "6: **",
        "9: pow()", "9: float_power()", "9: arctan2()",
    ]
    # and every listed name, called through `math` and numpy and imported
    listed = sorted(LIBM)
    source = "".join(f"a = math.{name}(x) + np.{name}(x)\n" for name in listed)
    source += f"from numpy import {', '.join(listed)}\n"
    assert libm_uses(source) == [
        f"{line}: {name}()" for line, name in enumerate(listed, start=1) for _ in (0, 1)
    ] + [f"{len(listed) + 1}: import {name}" for name in listed]
