"""Guard for the benchmark's per-layer names: one traced pass through
perfbench's ``Tracer`` and ``worker.layer_figures`` must report every
``per_layer`` metric that ``BENCHMARK.json`` declares, each with a finite
value, as the last line of a traced benchmark run has to.

    PYTHONPATH=src python -m pytest -q tests/test_perf_layers.py

It reads ``perfbench/`` and ``BENCHMARK.json`` and writes nothing there.
"""

import json
import math
import sys
from pathlib import Path

from pferrer import cli, diagram, ideal, invariants, macaulay, oracle, series

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer  # noqa: E402
from worker import layer_figures, run_op  # noqa: E402

# run.py derives this one from a traced and an untraced pass
ADDED_BY_RUN = {"trace.overhead_frac"}
MODULES = {
    "diagram": diagram,
    "ideal": ideal,
    "invariants": invariants,
    "macaulay": macaulay,
    "oracle": oracle,
    "series": series,
}
SMALL = json.dumps([[3, 2], [2, 1]])
OPS = [
    (["report", "--certificate", "-"], json.dumps([[4, 3, 2, 2], [3, 2, 1], [2], [2]])),
    (["series", "-"], SMALL),
    (["dual", "-"], SMALL),
    (["verify", "-"], SMALL),
    (["macaulay", "--h", "1,4,3,4,1"], None),
]


def test_every_declared_per_layer_metric_is_present_and_finite(monkeypatch):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in benchmark["per_layer"]} - ADDED_BY_RUN
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run_op replaces it per op
    with Tracer() as tracer:
        runs = [run_op(cli.main, *op) for op in OPS]
    assert [code for code, _, _ in runs] == [0] * len(OPS)
    figures = layer_figures(tracer, [seconds for _, _, seconds in runs], MODULES)
    assert sorted(declared - set(figures)) == []
    assert sorted(name for name in declared if not math.isfinite(figures[name])) == []
