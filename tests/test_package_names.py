"""Every function and class the package defines is named somewhere else in the package.

A function or class that only tests use belongs with the tests
(`oracles.py`), not in the package.  This test reads every module of the
package with `ast` and fails on a function, method or class, dunders aside,
that the package never uses: a function or class counts as used where its
name appears as a name or as an attribute, a method (a function defined in a
class body) only where it is read as an attribute, ``x.name``.  A local
variable that shares a method's name does not count for the method.  A name
inside the body of an ``ALLOWED`` function does not count either: what only
exempt code calls or builds is flagged too, and must be exempt for a reason
of its own.
"""

import ast
from pathlib import Path

import gmsurf

# Called from outside the package, each for the reason given.
ALLOWED = {
    "inertia": "the public `Fraction` entry to the congruence; bench/tracer.py traces it by name (TRACED)",
    "determinant_rows": "bench/tracer.py traces it by name (TRACED)",
    "nullspace_rows": "bench/tracer.py traces it by name (TRACED)",
    "_eliminate": "only the traced dense routines call them; they leave with ROADMAP item 5",
    "_clear_denominators": "only the traced dense routines call them; they leave with ROADMAP item 5",
    "negativity_certificate": "its verifier and CLI are still to come (ROADMAP item 4)",
    "NegativityCertificate": "only the allowlisted negativity_certificate builds it",
    "NotNegativeError": "only the allowlisted negativity_certificate raises it",
    "two_piece_graph": "the README quick start builds its example with it",
}


def unnamed_definitions() -> dict[str, str]:
    """Functions, methods and classes the package never uses, mapped to file:line."""
    named: dict[str, str] = {}  # functions and classes, used where read as a name or an attribute
    methods: dict[str, str] = {}
    in_class: set[ast.AST] = set()
    exempt: set[ast.AST] = set()  # the nodes inside ALLOWED functions
    names: set[str] = set()
    attributes: set[str] = set()
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(gmsurf.__file__).parent.glob("*.py")):
        # ast.walk is breadth first: a class is seen before the functions in
        # its body, and a function before the nodes in its own.
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                in_class.update(item for item in node.body if isinstance(item, definitions))
                named.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, definitions):
                found = methods if node in in_class else named
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
                if node.name in ALLOWED:
                    exempt.update(ast.walk(node))
            if node in exempt:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = {name: where for name, where in named.items() if name not in names | attributes}
    unused.update((name, where) for name, where in methods.items() if name not in attributes)
    return {name: where for name, where in unused.items() if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_function_is_named_in_the_package():
    unnamed = unnamed_definitions()
    assert {name: where for name, where in unnamed.items() if name not in ALLOWED} == {}
    # An entry whose function or class gained a user in the package, or left it, goes.
    assert sorted(ALLOWED.keys() - unnamed.keys()) == []
