"""Each module loads only what it imports: a fresh interpreter imports one
``pferrer`` module and the test reads which ``pferrer.*`` modules came with it.

    PYTHONPATH=src python -m pytest -q tests/test_layers.py

The package ``__init__`` re-exports nothing, so importing ``pferrer.oracle``
does not run the closed-form modules; ``test_oracle_imports_no_formula_module``
also sees imports written inside function bodies.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DIAGRAM = {"errors", "limits", "diagram"}
IDEAL = DIAGRAM | {"ideal"}
SERIES = IDEAL | {"series"}
LOADED = {
    "errors": {"errors"},
    "limits": {"errors", "limits"},
    "diagram": DIAGRAM,
    "ideal": IDEAL,
    "series": SERIES,
    "oracle": IDEAL | {"oracle"},
    "invariants": SERIES | {"invariants"},
    "macaulay": SERIES | {"macaulay"},
    "cli": SERIES | {"oracle", "invariants", "macaulay", "cli"},
}

MODULES = sorted(path.stem for path in (SRC / "pferrer").glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_only_its_layers(module):
    code = (
        f"import json, sys, pferrer.{module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('pferrer.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = {name.removeprefix("pferrer.") for name in json.loads(done.stdout)}
    assert loaded == LOADED[module]  # a new module needs its row above
