"""p-joined primes, in this repository's reconstruction: checked, not proven.

The abstract calls every p-Ferrer ideal "p-joined", a notion defined in a
paper this repository does not hold.  By analogy with the linearly joined
ideals of Eisenbud, Green, Hulek and Popescu ("Small schemes and varieties of
minimal degree", Amer. J. Math. 128, 2006), it is read here as: the minimal
primes can be ordered P_1, ..., P_m so that each (P_1 ∩ ... ∩ P_i) + P_{i+1}
is generated in degree at most depth - 1.  At depth 2 that is EGHP's
linearly joined.  The order that works is the canonical order of
``ferrer_dual``'s generators.
"""

import random

from helpers import acceptance_corpus
from pferrer import ideal as il


def joined_degree(primes: list[int]) -> int:
    """The largest generator degree of (P_1 ∩ ... ∩ P_i) + P_{i+1} over i,
    the primes being variable bitmasks in the given order.

    The intersection of the first i primes is generated by the minimal sets
    of variables meeting each of them, the minimal ORs of one bit of each
    (``ideal._minimal_ors``, one prime folded in a step); adding P_{i+1}
    leaves its variables and those generators disjoint from it.
    """
    covers = [0]
    degree = 0
    for i, prime in enumerate(primes):
        if i:
            disjoint = [c.bit_count() for c in covers if not c & prime]
            degree = max(degree, 1, *disjoint)
        covers = il._minimal_ors([covers, [1 << b for b in il._bit_indices(prime)]])
    return degree


def deep_diagrams():
    return [part for part in acceptance_corpus() if part.depth >= 2]


def test_the_canonical_order_of_the_primes_is_p_joined():
    parts = deep_diagrams()
    failed = [
        part
        for part in parts
        if joined_degree(list(il.ferrer_dual(part).masks())) > part.depth - 1
    ]
    assert len(parts) == 329 and not failed, failed[:3]


def test_some_random_order_of_the_primes_is_not_p_joined():
    rng = random.Random(6)
    failed = 0
    for part in deep_diagrams():
        primes = list(il.ferrer_dual(part).masks())
        for _ in range(3):
            rng.shuffle(primes)
            failed += joined_degree(primes) > part.depth - 1
    assert failed > 0
