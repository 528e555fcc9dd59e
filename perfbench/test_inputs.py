"""Self-checks of the benchmark's inputs; they run no pferrer code.

    python3 -m pytest -q perfbench/test_inputs.py
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

import workloads as w

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def tree_depth(tree) -> int:
    depth = 1
    while isinstance(tree, list):
        tree = tree[0]
        depth += 1
    return depth


def tree_boxes(tree, depth: int) -> set:
    if depth == 1:
        return {(i,) for i in range(1, tree + 1)}
    return {
        box + (i,)
        for i, child in enumerate(tree, start=1)
        for box in tree_boxes(child, depth - 1)
    }


def size_class(op) -> tuple:
    """(subcommand, depth, boxes, n) of a diagram op; (macaulay, h_1, length)
    of an h-vector op."""
    argv, stdin_text = op
    if stdin_text is None:
        h = tuple(int(x) for x in argv[2].split(","))
        return (argv[0], h[1], len(h))
    tree = json.loads(stdin_text)
    depth = tree_depth(tree)
    box_set = tree_boxes(tree, depth)
    return (argv[0], depth, len(box_set), w.nvars(box_set))


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_same_seed_same_bytes(workload, golden):
    first = json.dumps(w.make_ops(workload, 7, golden))
    second = json.dumps(w.make_ops(workload, 7, golden))
    assert first == second


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_other_seed_other_inputs_same_size(workload, golden):
    a = w.make_ops(workload, 1, golden)
    b = w.make_ops(workload, 2, golden)
    assert a != b
    assert len(a) == len(b) >= 110  # at least ten latencies beyond p90
    if workload == w.MACAULAY_HVECTORS:
        sizes = golden["dual_generators"]
        band = {}
        for (low, high), _ in w.MACAULAY_BANDS:
            for g in range(low, high + 1):
                band[g] = (low, high)
        assert Counter(band[sizes[w.op_key(op)]] for op in a) == Counter(
            band[sizes[w.op_key(op)]] for op in b
        )
    else:
        assert Counter(map(size_class, a)) == Counter(map(size_class, b))


def test_report_ladder_within_limits():
    for items in w.report_ladder_slots():
        assert len(items) >= w.LADDER_QUOTA
        for item in items:
            for argv, stdin_text in item:
                tree = json.loads(stdin_text)
                depth = tree_depth(tree)
                box_set = tree_boxes(tree, depth)
                assert w.is_downward_closed(box_set)
                assert depth <= w.MAX_DEPTH
                assert w.nvars(box_set) <= w.REPORT_MAX_N


def test_verify_corpus_within_limits():
    slots, quotas = w.verify_slots()
    for items, quota in zip(slots, quotas):
        assert len(items) > quota
        for [(argv, stdin_text)] in items:
            tree = json.loads(stdin_text)
            depth = tree_depth(tree)
            box_set = tree_boxes(tree, depth)
            assert w.is_downward_closed(box_set)
            assert 2 <= depth <= 4
            assert w.nvars(box_set) <= w.ORACLE_MAX_N
            assert len(box_set) <= w.ORACLE_MAX_GENERATORS


def test_macaulay_within_limits(golden):
    slots, quotas = w.macaulay_slots(golden["dual_generators"])
    for items, quota in zip(slots, quotas):
        assert len(items) > quota
    for h in w.macaulay_candidates():
        assert w.is_admissible(h)
        assert h[1] <= 10
        assert w.realized_n(h) <= w.MACAULAY_MAX_N


def test_macaulay_bound_examples():
    # 1,4,3,4,1 and 1,7,28,84 are admissible; 1,2,4 exceeds 2^<1> = 3.
    assert w.is_admissible((1, 4, 3, 4, 1))
    assert w.is_admissible((1, 7, 28, 84))
    assert not w.is_admissible((1, 2, 4))
    assert w.realized_n((1, 4, 3, 4, 1)) == 13  # 2 + 2 + 4 + 5 variables


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_every_pool_op_has_a_zero_exit_golden_record(workload, golden):
    records = golden["records"][workload]
    ops = w.all_pool_ops(workload)
    assert len(records) == len({w.op_key(op) for op in ops})
    for op in ops:
        code, digest = records[w.op_key(op)]
        assert code == 0 and len(digest) == 64
