"""Checks of the outside-in tracer against the library in ../src.

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from pferrer import cli  # noqa: E402
from pferrer import diagram, ideal, invariants, macaulay, oracle, series  # noqa: E402

from tracer import Tracer  # noqa: E402
from worker import layer_figures, run_op  # noqa: E402

MODULES = {
    "diagram": diagram,
    "ideal": ideal,
    "invariants": invariants,
    "macaulay": macaulay,
    "oracle": oracle,
    "series": series,
}
OPS = [
    (["report", "--certificate", "-"], json.dumps([[4, 3, 2, 2], [3, 2, 1], [2], [2]])),
    (["verify", "-"], json.dumps([[3, 2], [2, 1]])),
    (["macaulay", "--h", "1,4,3,4,1"], None),
]


def namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "pferrer" or name.startswith("pferrer.")
    }


def test_every_binding_is_wrapped_then_restored():
    before = namespaces()
    with Tracer():
        assert invariants.ferrer_ideal is not before["pferrer.invariants"]["ferrer_ideal"]
        assert macaulay.ferrer_ideal is ideal.ferrer_ideal
        assert invariants.boxes is diagram.boxes
        assert diagram.boxes.__wrapped__ is before["pferrer.diagram"]["boxes"]
        # A callable instance and the hot helpers stay unwrapped.
        assert series.ONE_MINUS_T is before["pferrer.series"]["ONE_MINUS_T"]
        assert ideal.variable_key is before["pferrer.ideal"]["variable_key"]
        assert series.deviation_poly((1, 2)).coeffs == (3, -2)
    after = namespaces()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_traced_ops_give_identical_bytes_and_consistent_figures():
    plain = [run_op(cli.main, *op)[:2] for op in OPS]
    with Tracer() as tracer:
        traced = [run_op(cli.main, *op) for op in OPS]
    assert [t[:2] for t in traced] == plain
    figures = layer_figures(tracer, [t[2] for t in traced], MODULES)
    # The self times sum to the wall time by construction (cli.self_s is the
    # remainder); this only catches a span counted twice or not at all.
    layers = ("cli",) + tuple(MODULES)
    total = sum(figures[f"{layer}.self_s"] for layer in layers)
    assert abs(total - figures["trace.wall_s"]) < 1e-6
    assert figures["oracle.graded_betti_brute.calls"] == 2
    assert figures["macaulay.realize_mvector.self_s"] > 0
    assert figures["invariants.ara_certificate.witnesses"] > 0
