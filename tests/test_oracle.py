import ast
import gc
import itertools
import math
import pathlib
import random
from functools import reduce

import pytest

from helpers import EX4322, EX54432, betti_table_of, lcm_intersection, random_partition
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import oracle as oc
from pferrer import series as sr
from pferrer.errors import SizeLimitExceeded
from pferrer.limits import Limits

M = il.Monomial.of
V = il.Variable


def linear_ideal(*variables):
    return il.MonomialIdeal.make([M({v: 1}) for v in variables])


# --- simplicial homology conventions -------------------------------------


def faces_of(*maximal):
    """All faces, as bitmasks, of the complex with these maximal faces."""
    return oc._submask_faces([sum(1 << v for v in face) for face in maximal])


def test_void_and_empty_complex():
    assert faces_of() == set() and oc._morse_homology(faces_of(), 0) == {}
    assert oc._morse_homology(faces_of([]), 1) == {-1: 1}


def test_avoidance_homology_on_no_vertices():
    # no sets: the void complex; the empty set: {∅}, not a contractible simplex
    assert oc._avoidance_homology(0, []) == {}
    assert oc._strong_collapse(0, [0]) == (0, [0])
    assert oc._avoidance_homology(0, [0]) == {-1: 1} == oc._homology_of_faces({0})
    assert oc._avoidance_homology(1, [0]) == {}


def test_point_is_acyclic():
    assert oc._morse_homology(faces_of([0]), 1) == {}


def test_circle_homology():
    assert oc._morse_homology(faces_of([0, 1], [1, 2], [0, 2]), 3) == {1: 1}


def test_two_points_homology():
    assert oc._morse_homology(faces_of([0], [1]), 2) == {0: 1}


SPHERE = ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])


def test_sphere_homology():
    assert oc._morse_homology(faces_of(*SPHERE), 4) == {2: 1}


def test_projective_plane_is_acyclic_over_the_rationals():
    # the 6-vertex real projective plane: over F_2 its reduced homology is
    # {1: 1, 2: 1}, over the rationals it vanishes
    triangles = [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
        [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3],
    ]
    faces = faces_of(*triangles)
    assert len(faces) == 1 + 6 + 15 + 10
    assert oc._homology_of_faces(faces) == {}
    assert oc._morse_homology(faces, 6) == {}


def test_rank_with_non_unit_pivots():
    assert oc._rank([{0: 2, 1: 2}, {0: 1, 1: 1}]) == 1
    assert oc._rank([{0: 2, 1: 4}, {0: 3, 1: 1}, {1: 5}]) == 2


def test_euler_characteristic_matches_homology():
    rng = random.Random(101)
    for _ in range(20):
        nverts = rng.randint(2, 6)
        maximal = [
            rng.sample(range(nverts), rng.randint(1, nverts))
            for _ in range(rng.randint(1, 5))
        ]
        faces = faces_of(*maximal)
        ranks = oc._morse_homology(faces, nverts)
        euler = sum((-1) ** d * h for d, h in ranks.items())
        assert euler == sum((-1) ** (f.bit_count() - 1) for f in faces)


def test_homology_independent_of_vertex_labels():
    a = faces_of([0, 1], [1, 2], [0, 2], [2, 3])
    b = faces_of([3, 2], [2, 0], [3, 0], [0, 1])
    assert oc._morse_homology(a, 4) == oc._morse_homology(b, 4)


def test_morse_homology_matches_exact_rank_random():
    rng = random.Random(113)
    for _ in range(150):
        nverts = rng.randint(1, 8)
        maximal = [
            rng.sample(range(nverts), rng.randint(0, min(3, nverts)))
            for _ in range(rng.randint(0, 12))
        ]
        faces = faces_of(*maximal)
        assert oc._morse_homology(faces, nverts) == oc._homology_of_faces(faces)


def test_morse_homology_falls_back_only_across_dimensions(monkeypatch):
    calls = []
    exact = oc._homology_of_faces

    def counted(faces):
        calls.append(len(faces))
        return exact(faces)

    monkeypatch.setattr(oc, "_homology_of_faces", counted)
    # a point beside a triangle boundary: critical faces in dimensions 0 and 1
    point_and_circle = faces_of([0], [1, 2], [2, 3], [1, 3])
    assert oc._morse_homology(point_and_circle, 4) == {0: 1, 1: 1}
    assert len(calls) == 1
    assert oc._morse_homology(faces_of(*SPHERE), 4) == {2: 1}
    assert len(calls) == 1


def test_oracle_imports_no_formula_module():
    # the two routes stay independent: agreement with the closed forms means
    # nothing if the oracle reads them
    tree = ast.parse(pathlib.Path(oc.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"diagram", "invariants", "series", "macaulay", "cli"})
    assert {"errors", "ideal", "limits"} <= imported


# --- graded Betti numbers --------------------------------------------------


def test_graded_betti_koszul_two_variables():
    table = oc.graded_betti_brute(linear_ideal(V(1, 1), V(1, 2)))
    assert table.entries == ((1, 1, 2), (2, 2, 1))


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
def test_graded_betti_linear_ideal_is_koszul(c):
    table = oc.graded_betti_brute(linear_ideal(*(V(1, i) for i in range(1, c + 1))))
    assert table.totals() == tuple(math.comb(c, j) for j in range(1, c + 1))
    for j in range(1, c + 1):
        assert table.degrees(j) == {j}


def test_graded_betti_staircase():
    table = oc.graded_betti_brute(il.ferrer_ideal(dg.validate([2, 1])))
    assert table.entries == ((1, 2, 3), (2, 3, 2))


def test_graded_betti_displayed_codim2_example():
    a, b, c, d = (V(1, i) for i in range(1, 5))
    ideal = il.MonomialIdeal.make([M({a: 1, b: 1}), M({a: 1, c: 1}), M({c: 1, d: 1})])
    table = oc.graded_betti_brute(ideal)
    assert table.entries == ((1, 2, 3), (2, 3, 2))


def test_graded_betti_example_4322():
    table = oc.graded_betti_brute(il.ferrer_ideal(dg.validate(EX4322)))
    assert table.entries == ((1, 3, 21), (2, 4, 50), (3, 5, 45), (4, 6, 17), (5, 7, 2))


def test_graded_betti_nonsquarefree():
    # I = (x^2, xy) resolves as 0 -> S(-3) -> S(-2)^2 -> I
    x, y = V(1, 1), V(1, 2)
    ideal = il.MonomialIdeal.make([M({x: 2}), M({x: 1, y: 1})])
    table = oc.graded_betti_brute(ideal)
    assert table.entries == ((1, 2, 2), (2, 3, 1))


def test_graded_betti_two_squares():
    x, y = V(1, 1), V(1, 2)
    table = oc.graded_betti_brute(il.MonomialIdeal.make([M({x: 2}), M({y: 2})]))
    assert table.entries == ((1, 2, 2), (2, 4, 1))


def test_graded_betti_cube_of_maximal_ideal():
    x, y = V(1, 1), V(1, 2)
    gens = [M({x: 3 - k, y: k}) for k in range(4)]
    table = oc.graded_betti_brute(il.MonomialIdeal.make(gens))
    assert table.entries == ((1, 3, 4), (2, 4, 3))


def test_graded_betti_nonsquarefree_random_matches_truncated_k_polynomial():
    # The oracle polarizes; the truncated count reads true exponent vectors.
    rng = random.Random(131)
    variables = [V(1, 1), V(1, 2), V(1, 3), V(2, 1), V(2, 2), V(3, 1)]
    limits = Limits(oracle_max_variables=32)
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 5)):
            chosen = rng.sample(variables, rng.randint(1, 4))
            gens.append(M({v: rng.randint(1, 3) for v in chosen}))
        ideal = il.MonomialIdeal.make(gens)
        table = oc.graded_betti_brute(ideal, limits)
        coeffs = {0: 1}
        for j, a, value in table.entries:
            coeffs[a] = coeffs.get(a, 0) + (-1) ** j * value
        alternating = sr.IntPolynomial.of(
            coeffs.get(k, 0) for k in range(max(coeffs) + 1)
        )
        # K(t) has degree at most that of the lcm of all generators
        top = sum(max(g.exponent(v) for g in ideal.generators) for v in ideal.ambient)
        counts = sr.IntPolynomial.of(oc.hilbert_function_truncated(ideal, top))
        product = counts * sr.ONE_MINUS_T ** len(ideal.ambient)
        assert alternating == sr.IntPolynomial.of(product.coeffs[: top + 1])


def test_graded_betti_limit_counts_polarized_variables():
    x = V(1, 1)
    assert oc.graded_betti_brute(il.MonomialIdeal.make([M({x: 16})])).entries == (
        (1, 16, 1),
    )
    with pytest.raises(SizeLimitExceeded):
        oc.graded_betti_brute(il.MonomialIdeal.make([M({x: 17})]))


def test_graded_betti_against_formula_random():
    rng = random.Random(103)
    for _ in range(12):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        if len(ideal.ambient) > 16:
            continue
        table = oc.graded_betti_brute(ideal)
        assert table == betti_table_of(dg.diagonal_profile(part))


def test_graded_betti_alternating_sum_matches_hilbert_numerator():
    rng = random.Random(109)
    for _ in range(8):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        table = oc.graded_betti_brute(ideal)
        coeffs = {0: 1}
        for j, a, value in table.entries:
            coeffs[a] = coeffs.get(a, 0) + (-1) ** j * value
        alternating = sr.IntPolynomial.of(
            coeffs.get(k, 0) for k in range(max(coeffs) + 1)
        )
        series = sr.hilbert_series_monomial(ideal)
        n = len(ideal.ambient)
        expected = series.numerator * sr.ONE_MINUS_T ** (n - series.denom_exponent)
        assert alternating == expected


def test_graded_betti_size_limits():
    ideal = il.ferrer_ideal(dg.validate(EX4322))
    with pytest.raises(SizeLimitExceeded):
        oc.graded_betti_brute(ideal, Limits(oracle_max_variables=4))
    with pytest.raises(SizeLimitExceeded):
        oc.graded_betti_brute(ideal, Limits(oracle_max_generators=4))


def test_graded_betti_refuses_exact_rank_on_large_complexes():
    # inside the default variable and generator limits, yet a lattice element
    # leaves critical faces in two dimensions among 4,796 faces, and without
    # the bound the exact rank over such complexes runs for minutes
    rng = random.Random(2)
    xs = [V(1, i) for i in range(1, 17)]
    gens = [M({v: 1 for v in rng.sample(xs, rng.randint(3, 5))}) for _ in range(30)]
    with pytest.raises(SizeLimitExceeded, match="exceed exact-rank limit 1024"):
        oc.graded_betti_brute(il.MonomialIdeal.make(gens))


def test_graded_betti_does_not_depend_on_the_pattern_memo():
    rng = random.Random(113)
    ideals = [il.ferrer_ideal(dg.validate(EX4322))]
    while len(ideals) < 16:
        ideal = il.ferrer_ideal(
            random_partition(rng, rng.choice([2, 3, 4]), max_children=3, max_leaf=3)
        )
        if len(ideal.ambient) <= 16 and len(ideal.generators) <= 60:
            ideals.append(ideal)
    # the table memo would answer repeated ideals before the pattern memo is
    # reached, so it is cleared wherever the pattern path is under test
    memo, tables = oc._pattern_homology, oc._betti_of_masks
    isolated = []
    for ideal in ideals:
        memo.cache_clear()
        tables.cache_clear()
        isolated.append(oc.graded_betti_brute(ideal))
    memo.cache_clear()
    tables.cache_clear()
    front_to_back = [oc.graded_betti_brute(ideal) for ideal in ideals]
    tables.cache_clear()
    back_to_front = [oc.graded_betti_brute(ideal) for ideal in reversed(ideals)]
    assert front_to_back == isolated == back_to_front[::-1]
    for ideal, table in zip(ideals, front_to_back):
        tables.cache_clear()
        misses = memo.cache_info().misses
        assert oc.graded_betti_brute(ideal) == table
        assert memo.cache_info().misses == misses
    info = memo.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_table_memo_serves_a_second_ideal_with_the_same_masks():
    # (x^2, xy) polarizes to the masks of (ab, ac), and polarization keeps
    # graded Betti numbers, so the second ideal reads the first one's table
    a, b, c = V(1, 1), V(1, 2), V(1, 3)
    squarefree = il.MonomialIdeal.make([M({a: 1, b: 1}), M({a: 1, c: 1})])
    polarized = il.MonomialIdeal.make([M({a: 2}), M({a: 1, b: 1})])
    assert sorted(squarefree.masks()) == sorted(polarized.masks()) == [0b011, 0b101]
    for first, second in (
        (squarefree, polarized),
        (il.ferrer_ideal(dg.validate(EX4322)), il.ferrer_ideal(dg.validate(EX4322))),
    ):
        oc._betti_of_masks.cache_clear()
        table = oc.graded_betti_brute(first)
        patterns = oc._pattern_homology.cache_info()
        assert oc.graded_betti_brute(second) == table
        after = oc._pattern_homology.cache_info()
        assert (after.hits, after.misses) == (patterns.hits, patterns.misses)
        assert oc._betti_of_masks.cache_info().hits == 1
    assert oc._betti_of_masks.cache_info().maxsize is not None


def test_pattern_memo_keys_are_renumbered():
    x = [V(1, i) for i in range(1, 8)]

    def path(a, b, c):
        return [M({x[a]: 1, x[b]: 1}), M({x[b]: 1, x[c]: 1})]

    oc.graded_betti_brute(il.MonomialIdeal.make(path(0, 1, 2)))
    misses = oc._pattern_homology.cache_info().misses
    # the same shape on bits 4..6 of a seven-variable ring
    shifted = il.MonomialIdeal.make(path(4, 5, 6), ambient=x)
    assert shifted.masks() == (0b0110000, 0b1100000)
    assert oc.graded_betti_brute(shifted).entries == ((1, 2, 2), (2, 3, 1))
    assert oc._pattern_homology.cache_info().misses == misses


# --- truncated Hilbert functions -------------------------------------------


def test_truncated_zero_ideal():
    ideal = il.MonomialIdeal.make([], ambient=[V(1, 1), V(1, 2)])
    assert oc.hilbert_function_truncated(ideal, 3) == (1, 2, 3, 4)


def test_truncated_square():
    ideal = il.ferrer_ideal(dg.validate([2, 2]))
    assert oc.hilbert_function_truncated(ideal, 2) == (1, 4, 6)


def test_truncated_unit_ideal():
    ideal = il.MonomialIdeal.make([il.MONOMIAL_ONE], ambient=[V(1, 1)])
    assert oc.hilbert_function_truncated(ideal, 2) == (0, 0, 0)


def test_truncated_matches_series_taylor():
    rng = random.Random(113)
    for _ in range(8):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        series = sr.hilbert_series_monomial(ideal)
        assert oc.hilbert_function_truncated(ideal, 12) == series.taylor(12)


def test_truncated_frees_its_memo_without_a_cyclic_collection():
    ideal = il.ferrer_ideal(dg.validate(EX4322))
    gc.collect()
    gc.disable()
    try:
        oc.hilbert_function_truncated(ideal, 12)
        left_for_the_collector = gc.collect()
    finally:
        gc.enable()
    # the recursive closure alone is a cycle of a few objects; a kept memo is
    # thousands of objects (18,861 here)
    assert left_for_the_collector < 100


def _naive_truncated(ideal, top):
    """Every exponent vector of degree <= top that no generator divides."""
    variables = ideal.ambient
    gens = [tuple(g.exponent(v) for v in variables) for g in ideal.generators]
    counts = [0] * (top + 1)
    for d in range(top + 1):
        for chosen in itertools.combinations_with_replacement(range(len(variables)), d):
            exps = [chosen.count(i) for i in range(len(variables))]
            if not any(all(a >= b for a, b in zip(exps, g)) for g in gens):
                counts[d] += 1
    return tuple(counts)


def test_truncated_matches_naive_enumeration():
    rng = random.Random(131)
    variables = [V(1 + i % 2, 1 + i // 2) for i in range(5)]
    for trial in range(240):
        ambient = variables[: rng.randint(0, 5)]
        gens = []
        if ambient:
            for _ in range(rng.randint(0, 6)):
                chosen = rng.sample(ambient, rng.randint(1, len(ambient)))
                # exponents up to 8 reach past every max_degree drawn below
                gens.append(M({v: rng.randint(1, 8) for v in chosen}))
        if trial % 40 == 0:
            gens = []  # the zero ideal
        elif trial % 40 == 1:
            gens.append(il.MONOMIAL_ONE)  # the unit ideal
        ideal = il.MonomialIdeal.make(gens, ambient=ambient)
        top = 0 if trial % 7 == 0 else rng.randint(1, 6)
        assert oc.hilbert_function_truncated(ideal, top) == _naive_truncated(ideal, top)


def test_truncated_prunes_to_naive_enumeration():
    # generators on the first variables only, trailing variables no generator
    # uses, and exponents at or past the degree bound: an active generator is
    # often done before the last variable, and the count stops there
    rng = random.Random(137)
    variables = [V(1 + i % 2, 1 + i // 2) for i in range(6)]
    for trial in range(160):
        ambient = variables[: rng.randint(1, 6)]
        top = rng.randint(0, 5)
        early = ambient[: rng.randint(1, len(ambient))]
        gens = []
        for _ in range(rng.randint(1, 5)):
            chosen = rng.sample(early, rng.randint(1, min(2, len(early))))
            gens.append(M({v: rng.randint(1, top + 2) for v in chosen}))
        if trial % 5 == 0:
            gens.append(M({early[0]: top}) if top else il.MONOMIAL_ONE)
        ideal = il.MonomialIdeal.make(gens, ambient=ambient)
        assert oc.hilbert_function_truncated(ideal, top) == _naive_truncated(ideal, top)


def test_truncated_example_54432_to_degree_20():
    ideal = il.ferrer_ideal(dg.validate(EX54432))
    series = sr.hilbert_series_monomial(ideal)
    assert oc.hilbert_function_truncated(ideal, 20) == series.taylor(20)


@pytest.mark.parametrize("tree, top", [([20] * 20, 6), ([[8] * 8] * 8, 8)])
def test_truncated_on_the_grid_and_the_cube_matches_the_series(tree, top):
    # 400 generators on 40 variables and 512 on 24: ideals whose generators
    # share most of their exponent tails, so the count has a few dozen states
    ideal = il.ferrer_ideal(dg.validate(tree))
    series = sr.hilbert_series_monomial(ideal)
    assert oc.hilbert_function_truncated(ideal, top) == series.taylor(top)


def test_truncated_respects_degree_limit():
    ideal = il.ferrer_ideal(dg.validate([2, 2]))
    with pytest.raises(SizeLimitExceeded):
        oc.hilbert_function_truncated(ideal, 25)


# --- intersections ----------------------------------------------------------


def test_intersect_principal():
    x, y = V(1, 1), V(2, 1)
    result = oc.intersect_monomial(linear_ideal(x), linear_ideal(y))
    assert [str(g) for g in result.generators] == ["x2_1*x1_1"]


def test_intersect_linear_with_principal():
    x1, x2, y = V(1, 1), V(1, 2), V(2, 1)
    result = oc.intersect_monomial(linear_ideal(x1, x2), linear_ideal(y))
    assert [str(g) for g in result.generators] == ["x2_1*x1_1", "x2_1*x1_2"]


def test_intersect_commutes_and_associates():
    rng = random.Random(127)
    variables = [V(1, i) for i in range(1, 5)]

    def random_ideal():
        gens = []
        for _ in range(rng.randint(1, 3)):
            gens.append(
                M({v: rng.randint(0, 2) for v in rng.sample(variables, rng.randint(1, 3))})
            )
        gens = [g for g in gens if g.factors]
        return il.MonomialIdeal.make(gens or [M({variables[0]: 1})])

    for _ in range(20):
        a, b, c = random_ideal(), random_ideal(), random_ideal()
        ab = oc.intersect_monomial(a, b)
        ba = oc.intersect_monomial(b, a)
        assert ab.generators == ba.generators
        left = oc.intersect_monomial(ab, c).generators
        right = oc.intersect_monomial(a, oc.intersect_monomial(b, c)).generators
        assert left == right


def test_intersect_matches_pairwise_lcms():
    rng = random.Random(139)
    variables = [V(1 + i % 3, 1 + i // 3) for i in range(7)]

    def random_ideal():
        ambient = rng.sample(variables, rng.randint(1, 5))
        roll = rng.random()
        if roll < 0.1:
            return il.MonomialIdeal.make([], ambient=ambient)  # the zero ideal
        if roll < 0.2:
            return il.MonomialIdeal.make([il.MONOMIAL_ONE], ambient=ambient)
        gens = []
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(ambient, rng.randint(1, min(3, len(ambient))))
            gens.append(M({v: rng.randint(1, 3) for v in chosen}))
        return il.MonomialIdeal.make(gens, ambient=ambient)

    for _ in range(300):
        a, b = random_ideal(), random_ideal()
        both = oc.intersect_monomial(a, b)
        reference = lcm_intersection(a, b)
        assert both.generators == reference.generators
        assert both.ambient == reference.ambient
        for _ in range(8):
            chosen = rng.sample(both.ambient, rng.randint(0, len(both.ambient)))
            m = M({v: rng.randint(1, 4) for v in chosen})
            assert both.contains(m) == (a.contains(m) and b.contains(m))
    # one call over any number of ideals, one of them included
    for count in (1, 3, 4):
        for _ in range(100):
            ideals = [random_ideal() for _ in range(count)]
            every = oc.intersect_monomial(*ideals)
            reference = reduce(lcm_intersection, ideals)
            assert every.generators == reference.generators
            assert every.ambient == reference.ambient
            for _ in range(4):
                chosen = rng.sample(every.ambient, rng.randint(0, len(every.ambient)))
                m = M({v: rng.randint(1, 4) for v in chosen})
                assert every.contains(m) == all(i.contains(m) for i in ideals)
