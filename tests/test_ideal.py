import itertools
import random
from functools import reduce

import pytest

from helpers import (
    EX4322,
    HVECTOR_GENERATORS,
    HVECTOR_OMITTED_PRIME,
    HVECTOR_PUBLISHED_PRIMES,
    random_partition,
)
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer.errors import DepthOne, NotSquarefree, SizeLimitExceeded
from pferrer.limits import Limits
from pferrer.macaulay import realize_mvector
from pferrer.oracle import intersect_monomial

M = il.Monomial.of
V = il.Variable


def linear_ideal(*variables):
    return il.MonomialIdeal.make([M({v: 1}) for v in variables])


def test_monomial_string_and_order():
    m = M({V(1, 4): 1, V(2, 1): 1, V(3, 2): 1})
    assert str(m) == "x3_2*x2_1*x1_4"
    assert str(M({V(1, 1): 3})) == "x1_1^3"
    assert str(il.MONOMIAL_ONE) == "1"


def test_monomial_arithmetic():
    a = M({V(1, 1): 2, V(1, 2): 1})
    b = M({V(1, 1): 1, V(1, 3): 1})
    assert a.lcm(b) == M({V(1, 1): 2, V(1, 2): 1, V(1, 3): 1})
    assert a.colon(b) == M({V(1, 1): 1, V(1, 2): 1})
    assert M({V(1, 1): 1}).divides(a)
    assert not a.divides(b)


def test_make_minimalizes_generators():
    ideal = il.MonomialIdeal.make([M({V(1, 1): 1}), M({V(1, 1): 1, V(1, 2): 1})])
    assert ideal.generators == (M({V(1, 1): 1}),)


def test_ferrer_ideal_leaf():
    ideal = il.ferrer_ideal(dg.validate(3))
    assert [str(g) for g in ideal.generators] == ["x1_1", "x1_2", "x1_3"]


def test_ferrer_ideal_staircase():
    ideal = il.ferrer_ideal(dg.validate([2, 1]))
    assert [str(g) for g in ideal.generators] == ["x2_1*x1_1", "x2_1*x1_2", "x2_2*x1_1"]


def test_ferrer_ideal_hvector_example():
    realization = realize_mvector((1, 4, 3, 4, 1))
    assert [str(g) for g in realization.ideal.generators] == HVECTOR_GENERATORS


def test_ferrer_ideal_generator_shape():
    rng = random.Random(3)
    for _ in range(20):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        ideal = il.ferrer_ideal(part)
        assert len(ideal.generators) == dg.box_count(part)
        for g in ideal.generators:
            assert g.is_squarefree and g.degree == part.depth
            assert sorted({v.group for v in g.support}) == list(range(1, part.depth + 1))


def test_ferrer_ideal_matches_make_random():
    rng = random.Random(29)
    for _ in range(40):
        part = random_partition(rng, rng.choice([1, 2, 3, 4]))
        expected = il.MonomialIdeal.make(il.box_monomial(b) for b in dg.boxes(part))
        ideal = il.ferrer_ideal(part)
        assert ideal == expected
        dual = il.alexander_dual(ideal)
        assert dual == il.MonomialIdeal.make(dual.generators, ambient=ideal.ambient)
        if part.depth >= 2:
            for c in il.intersection_decomposition(part):
                assert c == il.MonomialIdeal.make(c.generators)


def test_masks_squarefree_bit_i_is_ambient_i():
    ideal = il.ferrer_ideal(dg.validate([[2, 1], [1]]))
    expected = tuple(
        sum(1 << ideal.ambient.index(v) for v in g.support) for g in ideal.generators
    )
    assert ideal.masks() == expected


def test_masks_polarize_x_squared_xy():
    x, y = V(1, 1), V(1, 2)
    ideal = il.MonomialIdeal.make([M({x: 2}), M({x: 1, y: 1})])
    # x owns bits 0-1 and y bit 2; generators in canonical order: x*y, x^2
    assert [str(g) for g in ideal.generators] == ["x1_1*x1_2", "x1_1^2"]
    assert ideal.masks() == (0b101, 0b011)


def test_masks_unused_ambient_variable_owns_one_bit():
    x, y, z = V(1, 1), V(1, 2), V(1, 3)
    assert il.MonomialIdeal.make([M({x: 1, z: 1})], ambient=[x, y, z]).masks() == (0b101,)
    assert il.MonomialIdeal.make([M({x: 2, z: 1})], ambient=[x, y, z]).masks() == (0b1011,)


def test_intersection_decomposition_square():
    components = il.intersection_decomposition(dg.validate([2, 2]))
    assert len(components) == 2
    assert [str(g) for g in components[0].generators] == ["x2_1", "x2_2"]
    assert [str(g) for g in components[1].generators] == ["x1_1", "x1_2"]


def test_intersection_decomposition_staircase():
    part = dg.validate([2, 1])
    components = il.intersection_decomposition(part)
    assert len(components) == 3
    intersection = reduce(intersect_monomial, components)
    assert intersection.generators == il.ferrer_ideal(part).generators


def test_intersection_decomposition_example_4322_runs():
    part = dg.validate(EX4322)
    assert il.equal_runs(part) == ((1, 1), (2, 2), (3, 4))
    components = il.intersection_decomposition(part)
    assert len(components) == 4
    intersection = reduce(intersect_monomial, components)
    assert intersection.generators == il.ferrer_ideal(part).generators


def test_intersection_decomposition_large_example():
    from helpers import EX54432

    part = dg.validate(EX54432)
    components = il.intersection_decomposition(part)
    assert len(components) == 6  # five distinct children: five runs plus Q_1
    intersection = reduce(intersect_monomial, components)
    assert intersection.generators == il.ferrer_ideal(part).generators


def test_intersection_decomposition_random():
    rng = random.Random(31)
    for _ in range(15):
        part = random_partition(rng, rng.choice([2, 3]), max_children=3, max_leaf=3)
        components = il.intersection_decomposition(part)
        intersection = reduce(intersect_monomial, components)
        assert intersection.generators == il.ferrer_ideal(part).generators


def test_intersection_decomposition_depth_one():
    with pytest.raises(DepthOne):
        il.intersection_decomposition(dg.validate(3))


def test_minimal_primes_single_generator():
    ideal = il.MonomialIdeal.make([M({V(2, 1): 1, V(1, 1): 1})])
    assert il.minimal_primes(ideal) == {
        frozenset({V(2, 1)}),
        frozenset({V(1, 1)}),
    }


def test_minimal_primes_nested_example():
    # (a,b) ∩ (a,P2) ∩ P3 with P2 = (c,d) ∩ (e), P3 = (c,d) ∩ (c,e) ∩ (e,f);
    # letters a..f are encoded as x1_1..x1_6
    a, b, c, d, e, f = (V(1, i) for i in range(1, 7))
    P2 = intersect_monomial(linear_ideal(c, d), linear_ideal(e))
    P3 = reduce(
        intersect_monomial,
        [linear_ideal(c, d), linear_ideal(c, e), linear_ideal(e, f)],
    )
    with_a = il.MonomialIdeal.make([M({a: 1})] + list(P2.generators))
    ideal = reduce(intersect_monomial, [linear_ideal(a, b), with_a, P3])
    assert il.minimal_primes(ideal) == {
        frozenset({a, b}),
        frozenset({a, e}),
        frozenset({c, d}),
        frozenset({c, e}),
        frozenset({e, f}),
    }


def test_minimal_primes_nested_example_matches_golden_file():
    import json

    from helpers import FIXTURES

    golden = json.loads((FIXTURES / "nested_decomposition.json").read_text())
    a, b, c, d, e, f = (V(1, i) for i in range(1, 7))
    P2 = intersect_monomial(linear_ideal(c, d), linear_ideal(e))
    P3 = reduce(
        intersect_monomial,
        [linear_ideal(c, d), linear_ideal(c, e), linear_ideal(e, f)],
    )
    with_a = il.MonomialIdeal.make([M({a: 1})] + list(P2.generators))
    ideal = reduce(intersect_monomial, [linear_ideal(a, b), with_a, P3])
    assert [str(g) for g in ideal.generators] == golden["generators"]
    primes = il.minimal_primes(ideal)
    assert sorted(sorted(str(v) for v in p) for p in primes) == golden["minimal_primes"]


def test_minimal_primes_hvector_example():
    # the printed decomposition misses {t1,s1,s2,s3}: without it the
    # intersection is strictly larger than the ideal
    realization = realize_mvector((1, 4, 3, 4, 1))
    primes = il.minimal_primes(realization.ideal)
    assert primes == frozenset(HVECTOR_PUBLISHED_PRIMES) | {HVECTOR_OMITTED_PRIME}
    published = reduce(
        intersect_monomial, (linear_ideal(*p) for p in HVECTOR_PUBLISHED_PRIMES)
    )
    assert published.generators != realization.ideal.generators
    complete = intersect_monomial(published, linear_ideal(*HVECTOR_OMITTED_PRIME))
    assert complete.generators == realization.ideal.generators


def test_minimal_primes_size_equals_full_diagonal_count():
    rng = random.Random(37)
    for _ in range(15):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        primes = il.minimal_primes(ideal)
        assert min(len(p) for p in primes) == dg.diagonal_profile(part).df


def brute_minimal_primes(ideal):
    """Minimal sets among all subsets of the ambient that meet every generator."""
    supports = [frozenset(g.support) for g in ideal.generators]
    hitting = [
        frozenset(chosen)
        for size in range(len(ideal.ambient) + 1)
        for chosen in itertools.combinations(ideal.ambient, size)
        if all(support & frozenset(chosen) for support in supports)
    ]
    return {h for h in hitting if not any(other < h for other in hitting)}


def test_minimal_primes_match_brute_force_random():
    zero = il.MonomialIdeal((), (V(1, 1), V(1, 2)))
    unit = il.MonomialIdeal((il.MONOMIAL_ONE,), (V(1, 1),))
    assert il.minimal_primes(zero) == {frozenset()}
    assert il.minimal_primes(unit) == frozenset()
    ideals = [zero, unit]
    rng = random.Random(53)
    for _ in range(240):
        variables = tuple(V(1, i) for i in range(1, rng.randint(1, 10) + 1))
        gens = [
            M({v: 1 for v in rng.sample(variables, rng.randint(0, min(4, len(variables))))})
            for _ in range(rng.randint(0, 8))
        ]
        gens += rng.sample(gens, min(2, len(gens)))  # repeated generators
        ideals.append(il.MonomialIdeal(tuple(gens), variables))
    for ideal in ideals:
        assert il.minimal_primes(ideal) == brute_minimal_primes(ideal)


@pytest.mark.parametrize(
    "tree, limits",
    [
        ([[[[5] * 5] * 5] * 5] * 4, Limits()),
        ([20] * 20, Limits(hitting_set_max_variables=40)),
    ],
)
def test_minimal_primes_of_box_diagram_are_its_groups(tree, limits):
    # a box diagram's ideal is the product of its groups' linear ideals
    part = dg.validate(tree)
    ideal = il.ferrer_ideal(part)
    groups = {
        frozenset(v for v in ideal.ambient if v.group == k)
        for k in range(1, part.depth + 1)
    }
    assert il.minimal_primes(ideal, limits) == groups


def test_hitting_sets_fold_the_masks_in_ascending_order(monkeypatch):
    # pins the fold's work, not its time: on the 5^4 box ascending order hands
    # the minimalization 99,360 ORs, and set order about 7.4 million
    ideal = il.ferrer_ideal(dg.validate([[[[5] * 5] * 5] * 5] * 4))
    minimal_masks = il._minimal_masks
    handed = []

    def counting(masks):
        masks = list(masks)
        handed.append(len(masks))
        return minimal_masks(masks)

    monkeypatch.setattr(il, "_minimal_masks", counting)
    assert len(il.alexander_dual(ideal).generators) == 5
    assert len(handed) == len(ideal.generators) == 2500
    assert sum(handed) <= 200_000


def _primes_of(dual):
    return {frozenset(g.support) for g in dual.generators}


def test_ferrer_dual_of_the_20x20_grid_is_its_two_groups():
    part = dg.validate([20] * 20)
    limits = Limits(hitting_set_max_variables=40)
    ideal = il.ferrer_ideal(part)
    dual = il.ferrer_dual(part, limits)
    assert dual == il.alexander_dual(ideal, limits)
    assert _primes_of(dual) == il.minimal_primes(ideal, limits)
    assert _primes_of(dual) == {
        frozenset(V(k, a) for a in range(1, 21)) for k in (1, 2)
    }


def test_ferrer_dual_checks_the_hitting_set_limit():
    with pytest.raises(SizeLimitExceeded, match="^40 variables exceed hitting-set limit 30$"):
        il.ferrer_dual(dg.validate([20] * 20))


def test_ferrer_dual_matches_the_hitting_sets_on_random_deep_diagrams():
    rng = random.Random(41)
    limits = Limits(hitting_set_max_variables=64)
    for _ in range(200):
        part = random_partition(rng, rng.randint(1, 5), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        dual = il.ferrer_dual(part, limits)
        assert dual == il.alexander_dual(ideal, limits), part
        assert dual.ambient == ideal.ambient


def test_box_monomial_is_the_monomial_of_its_coordinates():
    rng = random.Random(17)
    for _ in range(300):
        box = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        assert il.box_monomial(box) == M({V(k, a): 1 for k, a in enumerate(box, start=1)})


def test_minimal_primes_rejects_nonsquarefree():
    with pytest.raises(NotSquarefree):
        il.minimal_primes(il.MonomialIdeal.make([M({V(1, 1): 2})]))


def test_minimal_primes_respects_variable_limit():
    ideal = il.ferrer_ideal(dg.validate([2, 1]))
    with pytest.raises(SizeLimitExceeded):
        il.minimal_primes(ideal, Limits(hitting_set_max_variables=2))


def test_colon_trivial():
    ideal = il.MonomialIdeal.make([M({V(1, 1): 1, V(2, 1): 1})])
    result = il.colon_by_monomial(ideal, M({V(2, 1): 1}))
    assert [str(g) for g in result.generators] == ["x1_1"]


def test_colon_of_removed_square_box():
    part, removed = dg.remove_last_diagonal_box(dg.validate([2, 2]))
    assert removed == (2, 2)
    result = il.colon_by_monomial(il.ferrer_ideal(part), il.box_monomial(removed))
    assert [str(g) for g in result.generators] == ["x2_1", "x1_1"]


def test_colon_after_removal_is_linear_on_smaller_indices():
    # removing a last-diagonal box and coloning by it yields exactly the
    # variables with strictly smaller index in each group
    rng = random.Random(41)
    parts = [dg.validate(EX4322)] + [
        random_partition(rng, rng.choice([2, 3]), max_children=3, max_leaf=3)
        for _ in range(10)
    ]
    for part in parts:
        if dg.box_count(part) < 2:
            continue
        smaller, removed = dg.remove_last_diagonal_box(part)
        result = il.colon_by_monomial(il.ferrer_ideal(smaller), il.box_monomial(removed))
        expected = {
            V(k, j)
            for k, alpha in enumerate(removed, start=1)
            for j in range(1, alpha)
        }
        assert {g for g in result.generators} == {M({v: 1}) for v in expected}
        assert len(expected) == sum(removed) - part.depth


def test_colon_example_4322_variable_count():
    part = dg.validate(EX4322)
    smaller, removed = dg.remove_last_diagonal_box(part)
    assert removed == (2, 4, 1)
    result = il.colon_by_monomial(il.ferrer_ideal(smaller), il.box_monomial(removed))
    assert len(result.generators) == 2 + 4 + 1 - 3


def test_alexander_dual_linear_is_principal():
    ideal = linear_ideal(V(1, 1), V(1, 2))
    dual = il.alexander_dual(ideal)
    assert [str(g) for g in dual.generators] == ["x1_1*x1_2"]
    assert il.alexander_dual(dual).generators == ideal.generators


def test_alexander_dual_square():
    dual = il.alexander_dual(il.ferrer_ideal(dg.validate([2, 2])))
    assert [str(g) for g in dual.generators] == ["x2_1*x2_2", "x1_1*x1_2"]


def test_alexander_dual_involution():
    rng = random.Random(43)
    for _ in range(12):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        assert il.alexander_dual(il.alexander_dual(ideal)).generators == ideal.generators


def test_alexander_dual_rejects_nonsquarefree():
    with pytest.raises(NotSquarefree):
        il.alexander_dual(il.MonomialIdeal.make([M({V(1, 1): 2})]))


def test_make_matches_the_quadratic_filter():
    rng = random.Random(137)
    variables = [V(1 + i % 2, 1 + i // 2) for i in range(5)]
    for _ in range(300):
        gens = [
            M({v: rng.randint(1, 3) for v in rng.sample(variables, rng.randint(0, 3))})
            for _ in range(rng.randint(0, 10))
        ]
        gens += rng.sample(gens, min(len(gens), 3))  # duplicates
        if rng.random() < 0.1:
            gens.append(il.MONOMIAL_ONE)
        ambient = variables[: rng.randint(0, 5)]
        unique = set(gens)
        reference = [g for g in unique if not any(h != g and h.divides(g) for h in unique)]
        support = {v for g in reference for v in g.support} | set(ambient)
        made = il.MonomialIdeal.make(gens, ambient=ambient)
        assert made.generators == tuple(sorted(reference, key=il.monomial_key))
        assert made.ambient == tuple(sorted(support, key=il.variable_key))
