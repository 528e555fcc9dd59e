"""Property tests over drawn diagrams: validation round-trips and reports an
injected fault where it lies, the last-diagonal removal picks its box by the
stated rule, and the closed-form Hilbert series agrees with the series from
the generators and with brute-force counting; the boxes come in generator
order and the profile's n counts the ideal's variables; the Betti table read off the
K-polynomial agrees with the binomial sums and the oracle; the box
certificate pairs each diagonal with divisors from earlier diagonals, and
its mask walk gives the first walk's classes and witnesses up to depth 6; the
Betti oracle's strong collapse keeps the pairwise-minimalizing reference's
cores, and its homology is that of the complex's faces; the minimal-OR
fold keeps the minimal ORs of one mask per group; the decoder reads the
polarized masks back in any order, and the masked intersection is the
minimalized pairwise lcms; a monomial prints as the f-string join, and the
bit-sliced pivot is the most frequent bit counted one by one."""

import random
from collections import Counter, defaultdict
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from operator import or_

import pytest

from helpers import betti_table_of, lcm_intersection
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import oracle as oc
from pferrer import series as sr
from pferrer.errors import NonPositiveLeaf, NonUniformDepth, NotDecreasing, SingletonDiagram
from pferrer.limits import Limits
from pferrer.oracle import graded_betti_brute, hilbert_function_truncated

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# A depth-1 draw has up to 40 variables, past the default hitting-set limit.
WIDE = Limits(hitting_set_max_variables=64)

# Per depth, the children per level from the top and the largest leaf: the
# full box they give holds at most 64 boxes, and every drawn tree lies in it.
BOX_SHAPES = {
    1: ((), 40),
    2: ((5,), 8),
    3: ((3, 3), 4),
    4: ((2, 2, 2), 3),
    5: ((2, 2, 2, 2), 2),
    6: ((2, 2, 2, 2, 2), 2),
}


def _box(widths, leaf):
    return leaf if not widths else [_box(widths[1:], leaf)] * widths[0]


def _meet(a, b):
    """The tree of the intersection of two trees' box sets."""
    if isinstance(a, int):
        return min(a, b)
    return [_meet(x, y) for x, y in zip(a, b)]


@st.composite
def _under(draw, cap):
    """A valid raw tree whose boxes lie in those of the valid tree ``cap``."""
    if isinstance(cap, int):
        return draw(st.integers(1, cap))
    children = []
    for i in range(draw(st.integers(1, len(cap)))):
        bound = cap[i] if not children else _meet(cap[i], children[-1])
        children.append(draw(_under(bound)))
    return children


diagrams = st.integers(1, 4).flatmap(lambda depth: _under(_box(*BOX_SHAPES[depth])))
deep_diagrams = st.integers(1, 6).flatmap(lambda depth: _under(_box(*BOX_SHAPES[depth])))


def _paths(tree, at=()):
    """Every node's index path, parents before children."""
    yield at
    if isinstance(tree, list):
        for i, child in enumerate(tree):
            yield from _paths(child, at + (i,))


def _get(tree, path):
    for i in path:
        tree = tree[i]
    return tree


def _replace(tree, path, new):
    if not path:
        return new
    out = list(tree)
    out[path[0]] = _replace(tree[path[0]], path[1:], new)
    return out


def _box_set(tree):
    """The boxes of a raw tree, read off its leaves: a leaf v at index path
    (i_p, ..., i_2) from the top holds the boxes (a, i_2 + 1, ..., i_p + 1)
    for a = 1..v."""
    out = set()
    for path in _paths(tree):
        leaf = _get(tree, path)
        if isinstance(leaf, int):
            coords = tuple(i + 1 for i in reversed(path))
            out.update((a,) + coords for a in range(1, leaf + 1))
    return out


def _json_path(path) -> str:
    return "$" + "".join(f"[{i}]" for i in path)


def _bump_first_leaf(tree):
    """The tree with its first leaf one larger: still valid, and not
    dominated by the tree it came from."""
    return tree + 1 if isinstance(tree, int) else [_bump_first_leaf(tree[0])] + tree[1:]


def _fault(draw, tree):
    """(faulty tree, error class, JSON path) with exactly one fault injected."""
    paths = list(_paths(tree))
    leaves = [p for p in paths if isinstance(_get(tree, p), int)]
    in_siblings = [p for p in paths if p and len(_get(tree, p[:-1])) > 1]
    kinds = ["zero", "bool", "empty"] + ["depth", "outgrow"] * bool(in_siblings)
    kind = draw(st.sampled_from(kinds))
    if kind in ("zero", "bool"):
        path = draw(st.sampled_from(leaves))
        value, error = (0, NonPositiveLeaf) if kind == "zero" else (True, NonUniformDepth)
        return _replace(tree, path, value), error, _json_path(path)
    if kind == "empty":
        path = draw(st.sampled_from(paths))
        return _replace(tree, path, []), NonUniformDepth, _json_path(path)
    path = draw(st.sampled_from(in_siblings))
    if kind == "depth":
        node = _get(tree, path)
        wrong = node[0] if isinstance(node, list) and draw(st.booleans()) else [node]
        return _replace(tree, path, wrong), NonUniformDepth, _json_path(path[:-1])
    if path[-1] == 0:
        path = path[:-1] + (1,)
    left = _get(tree, path[:-1] + (path[-1] - 1,))
    return _replace(tree, path, _bump_first_leaf(left)), NotDecreasing, _json_path(path)


@PROPERTY
@given(diagrams)
def test_validate_round_trips(tree):
    assert dg.validate(tree).to_tree() == tree


@PROPERTY
@given(diagrams, st.data())
def test_validate_reports_one_injected_fault_at_its_path(tree, data):
    faulty, error, path = _fault(data.draw, tree)
    with pytest.raises(error) as caught:
        dg.validate(faulty)
    assert caught.value.path == path


@PROPERTY
@given(diagrams)
def test_remove_last_diagonal_box_takes_the_largest_box_of_the_last_diagonal(tree):
    part = dg.validate(tree)
    all_boxes = dg.boxes(part)
    if len(all_boxes) == 1:
        with pytest.raises(SingletonDiagram):
            dg.remove_last_diagonal_box(part)
        return
    delta = max(dg.diagonal_index(b) for b in all_boxes)
    rest, removed = dg.remove_last_diagonal_box(part)
    assert removed == max(b for b in all_boxes if dg.diagonal_index(b) == delta)
    assert set(dg.boxes(rest)) == set(all_boxes) - {removed}


@settings(PROPERTY, deadline=2000)
@given(diagrams)
def test_boxes_come_in_generator_order_and_the_profile_counts_the_variables(tree):
    part = dg.validate(tree)
    ordered = dg.boxes(part)
    assert ordered == tuple(sorted(_box_set(tree), key=lambda b: b[::-1]))
    ideal = il.ferrer_ideal(part)
    assert [il.box_monomial(b) for b in ordered] == list(ideal.generators)
    n = dg.diagonal_profile(part).n
    assert n == len(ideal.ambient) == len(il.ferrer_dual(part, WIDE).ambient)


@settings(PROPERTY, max_examples=60)
@given(diagrams)
def test_series_routes_agree(tree):
    part = dg.validate(tree)
    ideal = il.ferrer_ideal(part)
    n = len(ideal.ambient)
    assume(n <= 16)
    profile = dg.diagonal_profile(part)
    series = sr.hilbert_series_monomial(ideal)
    formula = sr.hilbert_series_linear(profile.df, part.depth, profile.sigma, n - profile.df)
    assert series == formula
    assert series.taylor(8) == hilbert_function_truncated(ideal, 8)


@settings(PROPERTY, deadline=2000)
@given(diagrams)
def test_betti_table_agrees_with_the_binomial_sums_and_the_oracle(tree):
    part = dg.validate(tree)
    ideal = il.ferrer_ideal(part)
    profile = dg.diagonal_profile(part)
    c, delta, n = profile.df, profile.delta, profile.n
    table = betti_table_of(profile)
    for j in range(1, delta + 1):
        assert table.beta(j) == iv.betti_ambient_indexed(profile, j)
    assert table.beta(1) == dg.box_count(part)
    if c == delta:
        assert table.totals() == tuple(iv.betti_cm(c, part.depth, j) for j in range(1, c + 1))
    assume(n <= 12)
    assert table == graded_betti_brute(ideal)


@settings(PROPERTY, deadline=2000)
@given(diagrams)
def test_closed_form_primes_are_the_hitting_sets(tree):
    part = dg.validate(tree)
    ideal = il.ferrer_ideal(part)
    dual = il.ferrer_dual(part, WIDE)
    assert {frozenset(g.support) for g in dual.generators} == il.minimal_primes(ideal, WIDE)
    assert dual == il.alexander_dual(ideal, WIDE)


@settings(PROPERTY, deadline=2000)
@given(diagrams)
def test_box_certificate_witnesses_come_from_earlier_diagonals(tree):
    part = dg.validate(tree)
    all_boxes = dg.boxes(part)
    cert = iv.ara_certificate(part)
    witnesses = iter(cert.witnesses)
    for k, cls in enumerate(cert.classes, start=1):
        assert cls == tuple(sorted(b for b in all_boxes if dg.diagonal_index(b) == k))
        for pair in combinations(cls, 2):
            w = next(witnesses)
            assert (w.first, w.second) == pair
            assert w.witness in all_boxes
            assert dg.diagonal_index(w.witness) == w.witness_class < k
            assert all(x in coords for x, coords in zip(w.witness, zip(*pair)))
            lcm = il.box_monomial(w.first).lcm(il.box_monomial(w.second))
            assert il.box_monomial(w.witness).divides(lcm)
    assert next(witnesses, None) is None
    assert len(cert.classes) == max(dg.diagonal_index(b) for b in all_boxes)


def _certificate_reference(part):
    """(classes, witnesses) by the first certificate walk: the witness lowers
    the larger coordinate at the first difference of a pair, and divides the
    pair's lcm when each of its coordinates is the first's or the second's."""
    diagonal = {box: dg.diagonal_index(box) for box in dg.boxes(part)}
    by_diagonal = defaultdict(list)
    for box in sorted(diagonal):
        by_diagonal[diagonal[box]].append(box)
    classes = tuple(tuple(by_diagonal[k]) for k in range(1, max(by_diagonal) + 1))
    witnesses = []
    for k, cls in enumerate(classes, start=1):
        for first, second in combinations(cls, 2):
            i = next(i for i, (x, y) in enumerate(zip(first, second)) if x != y)
            source = first if first[i] > second[i] else second
            witness = source[:i] + (min(first[i], second[i]),) + source[i + 1 :]
            witness_diag = diagonal.get(witness, k)
            divides = all(map(tuple.__contains__, zip(first, second), witness))
            assert witness_diag < k and divides
            witnesses.append(iv.AraWitness(first, second, witness_diag, witness))
    return classes, tuple(witnesses)


@settings(PROPERTY, deadline=2000)
@given(deep_diagrams)
def test_ara_certificate_matches_the_first_walk(tree):
    part = dg.validate(tree)
    cert = iv.ara_certificate(part)
    assert (cert.classes, cert.witnesses) == _certificate_reference(part)


@st.composite
def _exponent_ideals(draw):
    """(ideal, exponent vectors) on at most 5 variables with exponents at most
    3, where some generators repeat another's tail on the last variables
    under a different head, so that they differ only on variables the count
    passes first."""
    n = draw(st.integers(1, 5))
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    gens = draw(st.lists(exponents, min_size=0, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        source = draw(st.sampled_from(gens))
        cut = draw(st.integers(1, n))
        gens.append(draw(st.lists(st.integers(0, 3), min_size=cut, max_size=cut)) + source[cut:])
    variables = [il.Variable(1 + i % 2, 1 + i // 2) for i in range(n)]
    monomials = [il.Monomial.of(dict(zip(variables, g))) for g in gens]
    return il.MonomialIdeal.make(monomials, ambient=variables), gens


@settings(PROPERTY, max_examples=300, deadline=2000)
@given(_exponent_ideals(), st.integers(0, 6))
def test_truncated_count_is_the_number_of_standard_monomials(drawn, top):
    ideal, gens = drawn
    n = len(ideal.ambient)
    counts = [0] * (top + 1)
    for d in range(top + 1):
        for chosen in combinations_with_replacement(range(n), d):
            exps = [chosen.count(i) for i in range(n)]
            if not any(all(a >= b for a, b in zip(exps, g)) for g in gens):
                counts[d] += 1
    assert hilbert_function_truncated(ideal, top) == tuple(counts)


def _collapse_reference(vertices, sets):
    """The reference strong collapse: pairwise minimalization, each vertex's
    incidence by a scan of every set, domination by nested ``any``."""
    while True:
        sets = sorted({s for s in sets if not any(o != s and o & s == o for o in sets)})
        if not sets or sets[0] == 0 < vertices:
            return None
        covered = 0
        for s in sets:
            covered |= s
        if covered != vertices:
            return None
        members = il._bit_indices(vertices)
        incidence = {
            v: sum(1 << i for i, s in enumerate(sets) if s >> v & 1) for v in members
        }
        dominated = None
        for v in reversed(members):
            if any(u != v and incidence[u] & ~incidence[v] == 0 for u in members):
                dominated = v
                break
        if dominated is None:
            return vertices, sets
        vertices &= ~(1 << dominated)
        sets = [s & ~(1 << dominated) for s in sets]


@st.composite
def _set_systems(draw, max_vertices, stray_bits):
    """(vertices, sets): a vertex mask on at most ``max_vertices`` bits, zero
    among them, and at most 12 nonzero set masks within it, with a repeated
    set, a set over another, sometimes the empty set, and no sets at all
    among the draws; with ``stray_bits``, the sets may also hold bits outside
    the vertices."""
    full = (1 << draw(st.integers(1, max_vertices))) - 1
    vertices = draw(st.sampled_from([full]) | st.integers(0, full))
    bits = il._bit_indices(full if stray_bits and draw(st.booleans()) else vertices)

    def masks(most):
        chosen = st.lists(st.sampled_from(bits), min_size=1, max_size=most)
        return chosen.map(lambda bs: sum(1 << b for b in set(bs)))

    sets = draw(st.lists(masks(3) | masks(len(bits)), max_size=9)) if bits else []
    if sets:
        sets.append(draw(st.sampled_from(sets)))
        sets.append(draw(st.sampled_from(sets)) | draw(masks(len(bits))))
    if draw(st.sampled_from(range(6))) == 5:
        sets.insert(draw(st.integers(0, len(sets))), 0)
    return vertices, sets


@settings(PROPERTY, max_examples=400, deadline=2000)
@given(_set_systems(10, stray_bits=True))
def test_strong_collapse_keeps_the_reference_core(system):
    vertices, sets = system
    assert oc._strong_collapse(vertices, sets) == _collapse_reference(vertices, sets)


@settings(PROPERTY, max_examples=300, deadline=2000)
@given(_set_systems(7, stray_bits=True))
def test_avoidance_homology_is_the_homology_of_all_faces(system):
    vertices, sets = system
    faces = {f for f in oc._submask_faces([vertices]) if any(not f & s for s in sets)}
    assert oc._avoidance_homology(vertices, sets) == oc._homology_of_faces(faces)



@settings(PROPERTY, max_examples=300, deadline=2000)
@given(st.lists(st.lists(st.integers(0, 255), max_size=4), max_size=4))
@example([[0, 6], [3, 5]])
@example([[1, 2], []])
def test_minimal_ors_are_the_minimal_ors_of_one_mask_per_group(groups):
    # at most 4 groups of at most 4 masks on 8 bits; 0 masks and empty groups occur
    ors = {reduce(or_, choice, 0) for choice in product(*groups)}
    minimal = {m for m in ors if not any(o != m and o & m == o for o in ors)}
    found = il._minimal_ors(groups)
    assert len(found) == len(minimal) and set(found) == minimal


@st.composite
def _any_ideals(draw):
    """Ideals on at most 5 variables, squarefree or with exponents up to 3;
    the zero ideal, the unit ideal and ambient variables that no generator
    uses all occur."""
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from([1, 3]))
    variables = [il.Variable(1 + i % 2, 1 + i // 2) for i in range(n)]
    vectors = draw(st.lists(st.lists(st.integers(0, top), min_size=n, max_size=n), max_size=6))
    monomials = [il.Monomial.of(dict(zip(variables, v))) for v in vectors]
    return il.MonomialIdeal.make(monomials, ambient=variables)


@settings(PROPERTY, max_examples=300, deadline=2000)
@given(_any_ideals(), st.randoms(use_true_random=False))
@example(il.MonomialIdeal.make([], ambient=[il.Variable(1, 1)]), random.Random(0))
@example(il.MonomialIdeal.make([il.MONOMIAL_ONE], ambient=[il.Variable(1, 1)]), random.Random(0))
@example(
    il.MonomialIdeal.make(
        [il.Monomial.of({il.Variable(2, 1): 3, il.Variable(1, 1): 1}),
         il.Monomial.of({il.Variable(2, 1): 1, il.Variable(1, 1): 2}),
         il.Monomial.of({il.Variable(1, 2): 2})],
        ambient=[il.Variable(1, 1), il.Variable(1, 2), il.Variable(2, 1)],
    ),
    random.Random(0),
)
def test_decode_reads_the_polarized_masks_back(ideal, rng):
    # widths above 1 come from the non-squarefree draws, and the decoder
    # sorts: the masks are also decoded in a seeded order
    _, width, (masks,) = il._polarize((ideal.generators,), ideal.ambient)
    assert il._decode(masks, width, ideal.ambient) == ideal
    shuffled = list(masks)
    rng.shuffle(shuffled)
    assert il._decode(shuffled, width, ideal.ambient) == ideal


@settings(PROPERTY, max_examples=200, deadline=2000)
@given(_any_ideals(), _any_ideals())
def test_masked_intersection_is_the_minimal_pairwise_lcms(a, b):
    # the reference takes lcms of monomials and minimalizes them; it builds no mask
    assert oc.intersect_monomial(a, b) == lcm_intersection(a, b)


def _reference_str(m):
    """A monomial's printed form as an f-string join of its factors."""
    if not m.factors:
        return "1"
    return "*".join(
        f"x{v.group}_{v.index}" if e == 1 else f"x{v.group}_{v.index}^{e}" for v, e in m.factors
    )


@settings(PROPERTY, deadline=2000)
@given(st.dictionaries(
    st.builds(il.Variable, st.integers(1, 99), st.integers(1, 99)), st.integers(1, 3), max_size=8
))
@example({})  # MONOMIAL_ONE
def test_monomial_prints_as_the_f_string_join(exponents):
    m = il.Monomial.of(exponents)
    assert str(m) == _reference_str(m)
    assert [str(v) for v in m.support] == [f"x{v.group}_{v.index}" for v in m.support]


@settings(PROPERTY, deadline=2000)
@given(st.integers(1, 40).flatmap(
    lambda bits: st.frozensets(st.integers(1, (1 << bits) - 1), min_size=1, max_size=80)
))
def test_most_frequent_bit_matches_a_counter(gens):
    counts = Counter(b for g in gens for b in range(40) if g >> b & 1)
    top = max(counts.values())
    assert sr._most_frequent_bit(gens) == 1 << max(b for b in counts if counts[b] == top)
