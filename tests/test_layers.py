"""Each module loads only what it imports: a fresh interpreter imports one
``pferrer`` module and the test reads which ``pferrer.*`` modules came with it.

    PYTHONPATH=src python -m pytest -q tests/test_layers.py

The package ``__init__`` re-exports nothing, so importing ``pferrer.oracle``
does not run the closed-form modules; ``test_oracle_imports_no_formula_module``
also sees imports written inside function bodies.  No module loads
``dataclasses`` or ``inspect``, about 7 ms of every CLI start: the value
types are NamedTuples.  Only ``ideal`` builds monomials and ideals.
"""

import ast
import functools
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


# standard modules the package must not load: their import chain is slow
SLOW = {"dataclasses", "inspect"}


@functools.cache
def modules_after(statement: str) -> frozenset[str]:
    """``sys.modules`` of a fresh interpreter once ``statement`` has run."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return frozenset(json.loads(done.stdout))


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_only_its_layers(module):
    modules = modules_after(f"import pferrer.{module}")
    loaded = {name.removeprefix("pferrer.") for name in modules if name.startswith("pferrer.")}
    assert loaded == LOADED[module]  # a new module needs its row above


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_no_slow_standard_module(module):
    # against a bare interpreter, whose ``site`` may import modules of its own
    added = modules_after(f"import pferrer.{module}") - modules_after("pass")
    assert not added & SLOW


def test_no_dataclass_in_the_package():
    found = []
    for path in sorted((SRC / "pferrer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            if any(name.split(".")[0] == "dataclasses" for name in imported):
                found.append((path.name, node.lineno, "import"))
            for decorator in getattr(node, "decorator_list", ()):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    found.append((path.name, decorator.lineno, "decorator"))
    assert found == []



def test_only_ideal_builds_monomials():
    # one monomial representation, owned by one module: the others get their
    # monomials and ideals from ``ideal``'s functions
    builders = (["Monomial"], ["MonomialIdeal"], ["Monomial", "of"], ["MonomialIdeal", "make"])
    found = []
    for path in sorted((SRC / "pferrer").glob("*.py")):
        if path.name == "ideal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                target = ast.unparse(node.func).split(".")  # il.Monomial.of: il, Monomial, of
                if target[-1:] in builders or target[-2:] in builders:
                    found.append((path.name, node.lineno, ".".join(target)))
    assert found == []
