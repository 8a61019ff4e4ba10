"""The package promises exact arithmetic: no floating point anywhere in it.

Walks the syntax tree of every module under ``src/hurwitzdegen`` and rejects
float and complex literals, ``float(...)`` calls, true division (``/`` and
``/=``; rationals go through ``Fraction``) and imports of the floating-point
modules.  The one exception is ``from math import ...`` of the functions
named in ``INTEGER_MATH``, which take and return integers only; any other
``math`` name, and ``import math`` itself, still fails.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hurwitzdegen"
FLOAT_MODULES = {"math", "cmath", "decimal", "statistics"}
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod"}


def imported_modules(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "math" and {alias.name for alias in node.names} <= INTEGER_MATH:
            return set()
        return {node.module.split(".")[0]}
    return set()


def test_only_integer_math_functions_pass():
    allowed = ast.parse("from math import gcd, lcm").body[0]
    assert imported_modules(allowed) == set()
    for source in ("import math", "from math import sqrt", "from math import lcm, pi",
                   "from math import *", "from cmath import phase"):
        assert imported_modules(ast.parse(source).body[0]) & FLOAT_MODULES, source


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))), f"float literal at {where}"
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), f"float() call at {where}"
        assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)), f"true division at {where}"
        assert not imported_modules(node) & FLOAT_MODULES, f"float module import at {where}"
