"""Replay every op the benchmark's workloads can draw through ``cli.main`` and
compare its exit code and stdout sha256 with ``perfbench/golden.json``, so
that "the CLI output is byte-identical" is one command:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_golden_pool.py

It reads ``perfbench/`` and writes nothing there.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pferrer import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_op_matches_its_golden_record(monkeypatch, workload):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    records = golden["records"][workload]
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run_op replaces it per op
    mismatched = []
    ops = workloads.all_pool_ops(workload)
    for op in ops:
        code, out, _ = run_op(cli.main, *op)
        if [code, hashlib.sha256(out).hexdigest()] != records[workloads.op_key(op)]:
            mismatched.append(op)
    assert len(ops) == len(records)
    assert not mismatched, f"{len(mismatched)} of {len(ops)} ops differ, first {mismatched[0]}"
