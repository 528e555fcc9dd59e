"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import series as sr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

EX4322 = [[4, 3, 2, 2], [3, 2, 1], [2], [2]]
EX54432 = [[5, 4, 4, 3, 2], [4, 4, 3, 3, 1], [4, 4, 3, 1], [2, 1, 1], [2, 1]]

# The 13 generators of the four-group example realizing (1,4,3,4,1), in
# canonical order (letters s,t,u,v correspond to groups 1..4).
HVECTOR_GENERATORS = [
    "x4_1*x3_1*x2_1*x1_1",
    "x4_1*x3_1*x2_1*x1_2",
    "x4_1*x3_1*x2_1*x1_3",
    "x4_1*x3_1*x2_1*x1_4",
    "x4_1*x3_1*x2_1*x1_5",
    "x4_1*x3_1*x2_2*x1_1",
    "x4_1*x3_1*x2_2*x1_2",
    "x4_1*x3_1*x2_2*x1_3",
    "x4_1*x3_1*x2_3*x1_1",
    "x4_1*x3_1*x2_3*x1_2",
    "x4_1*x3_1*x2_4*x1_1",
    "x4_1*x3_2*x2_1*x1_1",
    "x4_2*x3_1*x2_1*x1_1",
]

# The eleven components printed in the source example.  The full minimal
# decomposition of the ideal above contains one further component,
# {t1, s1, s2, s3}; see test_ideal and the acceptance suite.
HVECTOR_PUBLISHED_PRIMES = [
    frozenset({il.Variable(4, 1), il.Variable(4, 2)}),
    frozenset({il.Variable(3, 1), il.Variable(4, 1)}),
    frozenset({il.Variable(1, 1), il.Variable(4, 1)}),
    frozenset({il.Variable(2, 1), il.Variable(4, 1)}),
    frozenset({il.Variable(3, 1), il.Variable(3, 2)}),
    frozenset({il.Variable(1, 1), il.Variable(3, 1)}),
    frozenset({il.Variable(2, 1), il.Variable(3, 1)}),
    frozenset({il.Variable(2, i) for i in range(1, 5)}),
    frozenset({il.Variable(2, 1), il.Variable(2, 2), il.Variable(2, 3), il.Variable(1, 1)}),
    frozenset({il.Variable(2, 1), il.Variable(2, 2), il.Variable(1, 1), il.Variable(1, 2)}),
    frozenset({il.Variable(1, i) for i in range(1, 6)}),
]

HVECTOR_OMITTED_PRIME = frozenset(
    {il.Variable(2, 1), il.Variable(1, 1), il.Variable(1, 2), il.Variable(1, 3)}
)

HVECTOR_PUBLISHED_DUAL = [
    "x4_1*x4_2",
    "x4_1*x3_1",
    "x4_1*x2_1",
    "x4_1*x1_1",
    "x3_1*x3_2",
    "x3_1*x2_1",
    "x3_1*x1_1",
    "x2_1*x2_2*x2_3*x2_4",
    "x2_1*x2_2*x2_3*x1_1",
    "x2_1*x2_2*x1_1*x1_2",
    "x1_1*x1_2*x1_3*x1_4*x1_5",
]

HVECTOR_OMITTED_DUAL = "x2_1*x1_1*x1_2*x1_3"


def lcm_intersection(a: il.MonomialIdeal, b: il.MonomialIdeal) -> il.MonomialIdeal:
    """The intersection by pairwise lcms, minimalized: a reference for
    ``oracle.intersect_monomial``, independent of its polarized masks."""
    gens = [g.lcm(h) for g in a.generators for h in b.generators]
    return il.MonomialIdeal.make(gens, ambient=tuple(set(a.ambient) | set(b.ambient)))


def meet(a: dg.PFerrerPartition, b: dg.PFerrerPartition) -> dg.PFerrerPartition:
    """Componentwise minimum; the partition of the intersection of box sets."""
    if a.depth == 1:
        return dg.PFerrerPartition.leaf(min(a.value, b.value))
    kids = [meet(x, y) for x, y in zip(a.children, b.children)]
    return dg.PFerrerPartition.node(kids)


def random_dominated(rng: random.Random, bound: dg.PFerrerPartition) -> dg.PFerrerPartition:
    if bound.depth == 1:
        return dg.PFerrerPartition.leaf(rng.randint(1, bound.value))
    m = rng.randint(1, len(bound.children))
    kids = []
    cap = None
    for i in range(m):
        limit = bound.children[i] if cap is None else meet(cap, bound.children[i])
        kid = random_dominated(rng, limit)
        kids.append(kid)
        cap = kid
    return dg.PFerrerPartition.node(kids)


def random_partition(
    rng: random.Random, depth: int, max_children: int = 4, max_leaf: int = 4
) -> dg.PFerrerPartition:
    if depth == 1:
        return dg.PFerrerPartition.leaf(rng.randint(1, max_leaf))
    kids = [random_partition(rng, depth - 1, max_children, max_leaf)]
    for _ in range(rng.randint(1, max_children) - 1):
        kids.append(random_dominated(rng, kids[-1]))
    return dg.PFerrerPartition.node(kids)


def random_oracle_sized(rng: random.Random, count: int) -> list[dg.PFerrerPartition]:
    """Random valid diagrams small enough for the brute-force Betti oracle."""
    out = []
    while len(out) < count:
        depth = rng.choice([2, 2, 3, 3, 4])
        part = random_partition(rng, depth, max_children=4, max_leaf=4)
        ideal = il.ferrer_ideal(part)
        if len(ideal.ambient) <= 16 and len(ideal.generators) <= 60:
            out.append(part)
    return out


def all_staircases(max_boxes: int) -> list[dg.PFerrerPartition]:
    """Every depth-2 diagram (integer partition) with at most max_boxes boxes."""
    out = []

    def extend(prefix: list[int], remaining: int, cap: int):
        if prefix:
            out.append(dg.validate(list(prefix)))
        for part_size in range(min(cap, remaining), 0, -1):
            prefix.append(part_size)
            extend(prefix, remaining - part_size, part_size)
            prefix.pop()

    extend([], max_boxes, max_boxes)
    return out


def acceptance_corpus() -> list[dg.PFerrerPartition]:
    """The acceptance suite's 332 diagrams: the two named diagrams, all small
    full diagrams, every staircase with at most 12 boxes, and 50 random
    diagrams within oracle limits."""
    rng = random.Random(20250811)
    parts = [dg.validate(EX4322), dg.validate(EX54432)]
    parts += [dg.full_diagram(p, c) for p in (1, 2, 3) for c in (1, 2, 3)]
    parts += all_staircases(12)
    parts += random_oracle_sized(rng, 50)
    return parts


def betti_table_of(profile: dg.DiagonalProfile) -> il.GradedBettiTable:
    """``invariants.betti_table`` on the profile's own linear numerator."""
    return iv.betti_table(profile, sr.linear_numerator(profile.df, profile.depth, profile.sigma))


def with_a_non_dividing_witness(box_table):
    """``invariants._box_table`` with one fault for the 3 x 3 grid [3, 3, 3]:
    the walk's witness for the pair (1, 3), (3, 1) is (1, 1), which keeps its
    diagonal 1 but takes the mask of (2, 1), whose x1_2 is neither box's."""

    def wrong(part):
        table = box_table(part)
        table[(1, 1)] = (table[(1, 1)][0], table[(2, 1)][1])
        return table

    return wrong
