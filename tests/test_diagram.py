import functools
import importlib
import pickle
import pkgutil
import random
from itertools import product

import pytest

from helpers import EX4322, random_partition
import pferrer
from pferrer import diagram as dg
from pferrer.errors import (
    DepthMismatch,
    NonPositiveLeaf,
    NonUniformDepth,
    NotDecreasing,
    SingletonDiagram,
    SizeLimitExceeded,
)
from pferrer.limits import Limits


def test_validate_accepts_example_4322():
    part = dg.validate(EX4322)
    assert part.depth == 3
    assert part.to_tree() == EX4322


def test_validate_accepts_integer_leaf():
    part = dg.validate(5)
    assert part.depth == 1 and part.value == 5


def test_validate_rejects_increasing_children():
    with pytest.raises(NotDecreasing) as err:
        dg.validate([[2], [3]])
    assert err.value.path == "$[1]"


def test_validate_rejects_nested_violation_with_path():
    with pytest.raises(NotDecreasing) as err:
        dg.validate([[3, 2], [2, 3]])
    assert err.value.path == "$[1][1]"


def test_validate_reports_the_first_fault_depth_first():
    # a subtree is checked whole before its right siblings, and a node's
    # sibling dominance after its children: the fault inside $[0] wins
    with pytest.raises(NotDecreasing) as err:
        dg.validate([[1, 2], 0])
    assert err.value.path == "$[0][1]"
    with pytest.raises(NonPositiveLeaf) as err:
        dg.validate([[2, 1], [0], [3]])
    assert err.value.path == "$[1][0]"


def test_validate_rejects_mixed_depth():
    with pytest.raises(NonUniformDepth):
        dg.validate([[2], 3])


def test_validate_rejects_nonpositive_leaf():
    with pytest.raises(NonPositiveLeaf):
        dg.validate([2, 0])
    with pytest.raises(NonPositiveLeaf):
        dg.validate(-1)


def test_validate_rejects_empty_and_garbage():
    with pytest.raises(NonUniformDepth):
        dg.validate([])
    with pytest.raises(NonUniformDepth):
        dg.validate("3")
    with pytest.raises(NonUniformDepth):
        dg.validate(True)


PART = dg.validate([2, 1])


@pytest.mark.parametrize(
    "tree, name, path",
    [
        (PART, "PFerrerPartition", "$"),
        ([PART], "PFerrerPartition", "$[0]"),
        (dg.diagonal_profile(PART), "DiagonalProfile", "$"),
    ],
)
def test_validate_rejects_value_types(tree, name, path):
    # a value type is a tuple of its fields, but never a raw node
    with pytest.raises(NonUniformDepth) as err:
        dg.validate(tree)
    assert str(err.value) == f"expected integer or list, got {name} at {path}"
    assert err.value.path == path


def test_validate_accepts_tuple_trees():
    assert dg.validate(((2, 1), (1,))) == dg.validate([[2, 1], [1]])


def test_validate_enforces_limits():
    deep = 2
    for _ in range(6):
        deep = [deep]
    with pytest.raises(SizeLimitExceeded):
        dg.validate(deep)
    with pytest.raises(SizeLimitExceeded):
        dg.validate([3, 3], Limits(max_boxes=5))


def test_boxes_of_leaf():
    assert dg.boxes(dg.validate(3)) == ((1,), (2,), (3,))


def test_boxes_of_staircase():
    # in generator order: ascending by reversed coordinates
    assert dg.boxes(dg.validate([2, 1])) == ((1, 1), (2, 1), (1, 2))


def test_boxes_count_of_example_4322():
    part = dg.validate(EX4322)
    assert len(dg.boxes(part)) == 21
    assert dg.box_count(part) == 21


@pytest.mark.parametrize("tree", [EX4322, [3, 1], [[2, 2], [2, 1]], 4])
def test_boxes_downward_closed(tree):
    part = dg.validate(tree)
    box_set = dg.boxes(part)
    for box in box_set:
        for smaller in product(*(range(1, c + 1) for c in box)):
            assert smaller in box_set


def test_compare_intervals():
    assert dg.compare(dg.validate(3), dg.validate(2)) == dg.GREATER
    assert dg.compare(dg.validate(2), dg.validate(3)) == dg.LESS


def test_compare_reflexive():
    part = dg.validate(EX4322)
    assert dg.compare(part, part) == dg.EQUAL


def test_compare_incomparable():
    assert dg.compare(dg.validate([[2], [2]]), dg.validate([[3]])) == dg.INCOMPARABLE


def test_compare_depth_mismatch():
    with pytest.raises(DepthMismatch):
        dg.compare(dg.validate(2), dg.validate([2]))


def test_compare_agrees_with_box_containment():
    rng = random.Random(7)
    for _ in range(60):
        depth = rng.choice([2, 3])
        a = random_partition(rng, depth)
        b = random_partition(rng, depth)
        boxes_a, boxes_b = set(dg.boxes(a)), set(dg.boxes(b))
        result = dg.compare(a, b)
        if result == dg.EQUAL:
            assert boxes_a == boxes_b
        elif result == dg.GREATER:
            assert boxes_a > boxes_b
        elif result == dg.LESS:
            assert boxes_a < boxes_b
        else:
            assert not boxes_a >= boxes_b and not boxes_a <= boxes_b


def test_profile_staircase_21():
    profile = dg.diagonal_profile(dg.validate([2, 1]))
    assert profile.counts == (1, 2)
    assert profile.df == 2 and profile.delta == 2


def test_profile_square():
    profile = dg.diagonal_profile(dg.validate([2, 2]))
    assert profile.counts == (1, 2, 1)
    assert profile.df == 2 and profile.delta == 3


def test_profile_example_4322():
    profile = dg.diagonal_profile(dg.validate(EX4322))
    assert profile.counts == (1, 3, 6, 9, 2)
    assert profile.df == 3 and profile.delta == 5


def test_profile_matches_direct_box_tally():
    rng = random.Random(11)
    for _ in range(40):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        profile = dg.diagonal_profile(part)
        tally = {}
        for box in dg.boxes(part):
            k = dg.diagonal_index(box)
            tally[k] = tally.get(k, 0) + 1
        assert profile.counts == tuple(
            tally.get(k, 0) for k in range(1, max(tally) + 1)
        )
        assert sum(profile.counts) == dg.box_count(part)


def test_profile_slice_identity():
    # the count of diagonal k equals the sum of the children's counts of k-i+1
    rng = random.Random(13)
    parts = [dg.validate(EX4322)] + [random_partition(rng, rng.choice([2, 3])) for _ in range(25)]
    for part in parts:
        if part.depth == 1:
            continue
        profile = dg.diagonal_profile(part)
        child_profiles = [dg.diagonal_profile(child) for child in part.children]
        for k in range(1, profile.delta + 1):
            assert profile.count(k) == sum(
                cp.count(k - i + 1) for i, cp in enumerate(child_profiles, start=1)
            )


def test_profile_df_delta_recursions():
    # the df recursion needs the sentinel empty child beyond the last slice
    # (diagonal m+1 can never be full with only m slices)
    rng = random.Random(17)
    for _ in range(25):
        part = random_partition(rng, rng.choice([2, 3]))
        profile = dg.diagonal_profile(part)
        child_profiles = [dg.diagonal_profile(child) for child in part.children]
        m = len(child_profiles)
        assert profile.df == min(
            min(cp.df + i for i, cp in enumerate(child_profiles, start=0)), m
        )
        assert profile.delta == max(
            cp.delta + i for i, cp in enumerate(child_profiles, start=0)
        )


def test_df_prefix_is_full_and_next_is_not():
    rng = random.Random(19)
    for _ in range(30):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        profile = dg.diagonal_profile(part)
        p = part.depth
        assert profile.df <= profile.delta
        for k in range(1, profile.df + 1):
            assert profile.count(k) == dg.full_diagonal_size(k, p)
        if profile.df < profile.delta:
            assert profile.count(profile.df + 1) < dg.full_diagonal_size(profile.df + 1, p)


def test_full_diagram_examples():
    assert dg.full_diagram(1, 3).to_tree() == 3
    assert dg.full_diagram(2, 2).to_tree() == [2, 1]
    full33 = dg.full_diagram(3, 3)
    assert full33.to_tree() == [[3, 2, 1], [2, 1], [1]]
    assert dg.box_count(full33) == 10


@pytest.mark.parametrize("p,c", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_full_diagram_profile_is_full(p, c):
    profile = dg.diagonal_profile(dg.full_diagram(p, c))
    assert profile.df == c and profile.delta == c
    assert profile.counts == tuple(dg.full_diagonal_size(k, p) for k in range(1, c + 1))


def test_remove_last_box_square():
    part, removed = dg.remove_last_diagonal_box(dg.validate([2, 2]))
    assert removed == (2, 2)
    assert part.to_tree() == [2, 1]


def test_remove_last_box_chain_4322():
    part = dg.validate(EX4322)
    part, removed1 = dg.remove_last_diagonal_box(part)
    part, removed2 = dg.remove_last_diagonal_box(part)
    assert {removed1, removed2} == {(2, 4, 1), (2, 1, 4)}
    assert part.to_tree() == [[4, 3, 2, 1], [3, 2, 1], [2], [1]]


def test_remove_last_box_full_staircase():
    part, removed = dg.remove_last_diagonal_box(dg.full_diagram(2, 2))
    assert removed in {(2, 1), (1, 2)}
    assert dg.diagonal_profile(part).delta == 2


def test_remove_singleton_rejected():
    with pytest.raises(SingletonDiagram):
        dg.remove_last_diagonal_box(dg.validate(1))


def test_remove_iterates_to_single_box():
    rng = random.Random(23)
    for _ in range(10):
        part = random_partition(rng, rng.choice([2, 3]), max_children=3, max_leaf=3)
        count = dg.box_count(part)
        for _ in range(count - 1):
            profile_before = dg.diagonal_profile(part)
            part, removed = dg.remove_last_diagonal_box(part)
            profile_after = dg.diagonal_profile(part)
            delta = profile_before.delta
            assert dg.diagonal_index(removed) == delta
            assert profile_after.delta in (delta, delta - 1)
            assert profile_after.count(delta) == profile_before.count(delta) - 1
        assert dg.boxes(part) == ((1,) * part.depth,)


def test_partition_from_boxes_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        rebuilt = dg.partition_from_boxes(dg.boxes(part), part.depth)
        assert rebuilt == part


def test_every_lru_cache_in_the_package_is_bounded():
    seen = 0
    for info in pkgutil.iter_modules(pferrer.__path__, "pferrer."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                seen += 1
                assert obj.cache_parameters()["maxsize"] is not None, f"{info.name}.{name}"
    assert seen >= 3


def test_partition_hash_is_the_field_hash_and_equal_trees_share_the_cache():
    part = dg.validate(EX4322)
    assert hash(part) == hash((part.depth, part.value, part.children))
    leaf = dg.PFerrerPartition.leaf
    node = dg.PFerrerPartition.node
    built = node(node(leaf(v) for v in row) for row in EX4322)
    assert built is not part and built == part and hash(built) == hash(part)
    first = dg.boxes(part)
    hits = dg.boxes.cache_info().hits
    assert dg.boxes(built) is first
    assert dg.boxes.cache_info().hits == hits + 1


def test_boxes_keeps_only_the_last_diagram():
    rng = random.Random(31)
    seen = set()
    while len(seen) < 60:
        part = random_partition(rng, rng.randint(1, 4))
        last = dg.boxes(part)
        seen.add(part)
        assert dg.boxes.cache_info().currsize == 1
        assert dg.boxes(part) is last
    assert dg.boxes.cache_info().maxsize == 1


def test_separately_parsed_deep_diagrams_hash_and_compare_equal():
    def chain(bottom, limits=Limits(max_depth=250)):
        for _ in range(200):
            bottom = [bottom]
        return dg.validate(bottom, limits)

    first, second = chain([3, 1]), chain([3, 1])
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != chain([3, 2])


def test_unpickled_partition_recomputes_its_hash():
    part = dg.validate(EX4322)
    copy = pickle.loads(pickle.dumps(part))
    assert copy == part and hash(copy) == hash((copy.depth, copy.value, copy.children))
