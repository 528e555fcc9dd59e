"""Replay every op the benchmark's workloads can draw through ``cli.main`` and
compare its exit code and stdout sha256 with ``perfbench/golden.json``, so
that "the CLI output is byte-identical" is one command:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_golden_pool.py

Without ``-m slow`` every tenth op of each workload is replayed, so a byte
change in any subcommand fails the default run too.  It reads ``perfbench/``
and writes nothing there.
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


def _records(workload):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    return golden["records"][workload]


def _mismatched(ops, records):
    mismatched = []
    for op in ops:
        code, out, _ = run_op(cli.main, *op)
        if [code, hashlib.sha256(out).hexdigest()] != records[workloads.op_key(op)]:
            mismatched.append(op)
    return mismatched


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_op_matches_its_golden_record(monkeypatch, workload):
    records = _records(workload)
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run_op replaces it per op
    ops = workloads.all_pool_ops(workload)
    mismatched = _mismatched(ops, records)
    assert len(ops) == len(records)
    assert not mismatched, f"{len(mismatched)} of {len(ops)} ops differ, first {mismatched[0]}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_tenth_pool_op_matches_its_golden_record(monkeypatch, workload):
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run_op replaces it per op
    ops = workloads.all_pool_ops(workload)[::10]
    mismatched = _mismatched(ops, _records(workload))
    assert not mismatched, f"{len(mismatched)} of {len(ops)} ops differ, first {mismatched[0]}"
