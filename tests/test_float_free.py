"""The package computes with no floating point.

The README promises that everything is "deterministic and floating-point
free", and the surface builder's vector search runs in fixed-point
integers.  This test reads every module of the package with `ast` and fails
on a float literal, a call of `float(...)`, or a `math` import other than
its integer functions: `import math` brings in the float ones too.
"""

import ast
from pathlib import Path

import pytest

import gmsurf

INTEGER_MATH = {"gcd", "lcm", "factorial", "isqrt"}


def float_uses(source: str, name: str) -> list[str]:
    """Each float literal, `float(...)` call and non-integer `math` import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(...) call")
        elif isinstance(node, ast.Import) and any(alias.name == "math" for alias in node.names):
            found.append(f"{where}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = sorted(alias.name for alias in node.names if alias.name not in INTEGER_MATH)
            if extra:
                found.append(f"{where}: from math import {', '.join(extra)}")
    return found


def test_the_package_has_no_floating_point():
    paths = sorted(Path(gmsurf.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    found = [use for path in paths for use in float_uses(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "y = float(x)",
        "import math",
        "import os, math as m",
        "from math import sqrt",
        "from math import gcd, log2",
        "def f():\n    from math import cos\n",
    ],
)
def test_the_scan_sees_each_kind_of_float(source):
    assert float_uses(source, "m.py")


@pytest.mark.parametrize(
    "source",
    [
        "from math import gcd, lcm",
        "from math import factorial, isqrt",
        "x = 1 << 30",
        "isinstance(v, float)",
        "x = '0.5'",
    ],
)
def test_the_scan_passes_integer_code(source):
    assert float_uses(source, "m.py") == []
