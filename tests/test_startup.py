"""What importing the CLI loads, counted in a fresh interpreter.

Every ``gmsurf`` command pays for its imports before ``main`` runs.  The
package's record classes are plain slotted classes, not dataclasses, and
its annotations come from ``collections.abc``, so ``import gmsurf.cli``
loads none of the modules below.  ``python -S`` skips ``site``, which on
many hosts imports some of them first.  The test counts modules, so it does
not depend on timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gmsurf

SRC = Path(gmsurf.__file__).resolve().parents[1]
PACKAGE = Path(gmsurf.__file__).resolve().parent
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib")
PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import gmsurf.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def added_by_import() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(out.stdout)


def test_importing_the_cli_loads_none_of_the_slow_modules():
    added = added_by_import()
    assert "gmsurf.cli" in added  # the probe imported the package from SRC
    assert [name for name in UNWANTED if name in added] == []


def test_importing_the_cli_loads_every_package_module():
    # The benchmark's tracer looks up each traced module in sys.modules, so
    # no module may be imported lazily.
    modules = {f"gmsurf.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules - set(added_by_import())) == []
