"""Replay every op the benchmark's workloads can draw through ``cli.main`` and
compare its exit code and stdout sha256 with ``perfbench/golden.json``, so
that "the CLI output is byte-identical" is one command:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_golden_pool.py

Without ``-m slow`` every tenth op of each workload is replayed, so a byte
change in any subcommand fails the default run too.  A ``slow`` test also
checks the closed-form minimal primes of every pool diagram against the
hitting sets.  It reads ``perfbench/`` and writes nothing there.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pferrer import cli
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import macaulay as mc

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


def _pool_diagram(op):
    argv, stdin_text = op
    if argv[0] == "macaulay":
        h = tuple(int(chunk) for chunk in argv[-1].split(","))
        return mc.diagram_from_multicomplex(mc.multicomplex_from_mvector(h))
    return dg.validate(json.loads(stdin_text))


@pytest.mark.slow
def test_closed_form_primes_of_every_pool_diagram_are_the_hitting_sets():
    diagrams = {
        _pool_diagram(op) for workload in workloads.WORKLOADS for op in workloads.all_pool_ops(workload)
    }
    mismatched = []
    for part in diagrams:
        ideal = il.ferrer_ideal(part)
        dual = il.ferrer_dual(part)
        primes = {frozenset(g.support) for g in dual.generators}
        if primes != il.minimal_primes(ideal) or dual != il.alexander_dual(ideal):
            mismatched.append(part)
    assert len(diagrams) > 1000 and not mismatched, mismatched[:3]
