"""The verifiers share no code path with the builders they check.

A verifier that reused a builder's elimination would accept whatever a bug
in that elimination produced.  This test reads the source of each verifier
with `ast`, follows every package function and class it names, transitively,
and checks that no builder routine is named anywhere on the way, whether as
a name or as an attribute.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
import textwrap

import gmsurf
from gmsurf import covers, reduction, surface

BUILDERS = {
    "inertia",
    "_congruence",
    "_sub",
    "_mul",
    "_inverse",
    "_fraction",
    "_primitive",
    "_reduced",
    "_fixed_point_solve",
    "_strict_rows",
    "_scaled",
    "_perron_search",
    "_eliminate",
    "determinant_rows",
    "nullspace_rows",
    "find_singular_reduction",
    "strict_shrink",
    "find_cover",
    "alpha_cycle_split",
    "_relink",
    "build_surface_certificate",
}
VERIFIERS = (
    (reduction, "verify_reduction"),
    (surface, "verify_surface_certificate"),
    (covers, "verify_cover"),
)


def named(obj) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def reachable_names(root) -> dict[str, str]:
    """Every name on a path from ``root``, mapped to the package object naming it first."""
    seen: dict[str, str] = {}
    visited = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj in visited:
            continue
        visited.add(obj)
        namespace = vars(sys.modules[obj.__module__])
        for name in named(obj):
            seen.setdefault(name, obj.__qualname__)
            target = namespace.get(name)
            if (inspect.isfunction(target) or inspect.isclass(target)) and target.__module__.startswith("gmsurf"):
                stack.append(target)
    return seen


def test_every_builder_is_defined_in_the_package():
    # A builder the package no longer defines would guard nothing.
    defined = set()
    for info in pkgutil.iter_modules(gmsurf.__path__):
        module = importlib.import_module(f"gmsurf.{info.name}")
        defined |= {name for name, obj in vars(module).items() if getattr(obj, "__module__", None) == module.__name__}
    assert sorted(BUILDERS - defined) == []


def test_verifiers_reference_no_builder_routine():
    for module, name in VERIFIERS:
        seen = reachable_names(getattr(module, name))
        assert len(seen) > 5  # the walk reads real source
        leaked = {builder: seen[builder] for builder in BUILDERS if builder in seen}
        assert not leaked, f"{name} reaches builder routines: {leaked}"


def test_the_walk_sees_builders_where_they_are_called():
    seen = reachable_names(surface.build_surface_certificate)
    assert {
        "strict_shrink",
        "_perron_search",
        "_fixed_point_solve",
        "_congruence",
        "_primitive",
        "_strict_rows",
    } <= set(seen)
    assert {"alpha_cycle_split", "_relink"} <= set(reachable_names(covers.find_cover))
