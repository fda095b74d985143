"""Every function the package defines is named somewhere else in the package.

A function that only tests call belongs with the tests (`oracles.py`), not
in the package.  This test reads every module of the package with `ast` and
fails on a function or method, dunders aside, that the package never uses:
a function counts as used where its name appears as a name or as an
attribute, a method (a function defined in a class body) only where it is
read as an attribute, ``x.name``.  A local variable that shares a method's
name does not count for the method.
"""

import ast
from pathlib import Path

import gmsurf

# Called from outside the package, each for the reason given.
ALLOWED = {
    "determinant_rows": "bench/tracer.py traces it by name (TRACED)",
    "nullspace_rows": "bench/tracer.py traces it by name (TRACED)",
    "negativity_certificate": "its verifier and CLI are still to come (ROADMAP item 4)",
    "two_piece_graph": "the README quick start builds its example with it",
}


def unnamed_functions() -> dict[str, str]:
    """Functions and methods the package never uses, mapped to file:line."""
    functions: dict[str, str] = {}
    methods: dict[str, str] = {}
    in_class: set[ast.AST] = set()
    names: set[str] = set()
    attributes: set[str] = set()
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(gmsurf.__file__).parent.glob("*.py")):
        # ast.walk is breadth first: a class is seen before the functions in its body.
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                in_class.update(item for item in node.body if isinstance(item, definitions))
            elif isinstance(node, definitions):
                found = methods if node in in_class else functions
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = {name: where for name, where in functions.items() if name not in names | attributes}
    unused.update((name, where) for name, where in methods.items() if name not in attributes)
    return {name: where for name, where in unused.items() if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_function_is_named_in_the_package():
    unnamed = unnamed_functions()
    assert {name: where for name, where in unnamed.items() if name not in ALLOWED} == {}
    # An entry whose function gained a caller in the package, or left it, goes.
    assert sorted(ALLOWED.keys() - unnamed.keys()) == []
