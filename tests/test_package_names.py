"""Every function the package defines is named somewhere else in the package.

A function that only tests call belongs with the tests (`oracles.py`), not
in the package.  This test reads every module of the package with `ast` and
fails on a function or method, dunders aside, whose name appears nowhere in
the package except at its own definition, as a name or as an attribute.
"""

import ast
from pathlib import Path

import gmsurf

# Called from outside the package, each for the reason given.
ALLOWED = {
    "determinant_rows": "bench/tracer.py traces it by name (TRACED)",
    "nullspace_rows": "bench/tracer.py traces it by name (TRACED)",
    "negativity_certificate": "its verifier and CLI are still to come (ROADMAP item 2)",
    "two_piece_graph": "the README quick start builds its example with it",
}


def unnamed_functions() -> dict[str, str]:
    """Functions named nowhere in the package but at their definition, mapped to file:line."""
    defined: dict[str, str] = {}
    named: set[str] = set()
    for path in sorted(Path(gmsurf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {
        name: where
        for name, where in defined.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_package_function_is_named_in_the_package():
    unnamed = unnamed_functions()
    assert {name: where for name, where in unnamed.items() if name not in ALLOWED} == {}
    # An entry whose function gained a caller in the package, or left it, goes.
    assert sorted(ALLOWED.keys() - unnamed.keys()) == []
