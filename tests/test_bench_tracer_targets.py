"""The traced benchmark run wraps gmsurf functions by (module, attribute) name.

`bench/tracer.py` lists them in `TRACED`; a rename or move inside the
package would make `--trace 1` fail at install time.  This test reads that
list without importing or changing the bench and checks that every name
still resolves the way the tracer looks it up.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("TRACED not found in bench/tracer.py")


def test_every_traced_name_resolves_in_gmsurf():
    names = traced_names()
    assert names
    for module_name, attr in names:
        module = importlib.import_module(f"gmsurf.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name))[method]), (module_name, attr)
        else:
            assert callable(getattr(module, attr)), (module_name, attr)
