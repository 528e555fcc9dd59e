"""Closed-form homological invariants of diagram ideals.

The resolution being p-linear, the Betti numbers are a reading of the
Hilbert series: its numerator over (1 - t)^n, the K-polynomial, is
sum_j (-1)^j beta_j t^(j + p - 1).  ``betti_table`` reads them off
``series.k_polynomial``, the one derivation from the diagonal profile that the
printed series also takes, and returns the same ``ideal.GradedBettiTable`` as
the oracle, with every entry in degree j + p - 1, so the two routes compare by
``==``.  ``betti_cm`` (the full-diagram case) and ``betti_ambient_indexed``
(the binomial sum over the diagonal counts) stay as independent references.
The ara certificate holds boxes; ``ideal.box_monomial`` maps each box to its
generator.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .diagram import (
    Box,
    DiagonalProfile,
    PFerrerPartition,
    boxes,
    diagonal_index,
    diagonal_profile,
    remove_last_diagonal_box,
)
from .errors import CertificateFailure
from .ideal import GradedBettiTable, ferrer_ideal
from .series import k_polynomial


def betti_cm(c: int, p: int, j: int) -> int:
    """Betti numbers of a Cohen-Macaulay quotient with p-linear resolution and
    codimension c: C(c+p-1, j+p-1) * C(j+p-2, p-1).  Zero beyond j = c."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if j == 0:
        return 1
    if j > c:
        return 0
    return math.comb(c + p - 1, j + p - 1) * math.comb(j + p - 2, p - 1)


def betti_table(part: PFerrerPartition) -> GradedBettiTable:
    """Graded Betti numbers of the quotient by the diagram ideal: beta_j in
    degree j + p - 1 alone for j = 1..delta, the resolution being p-linear,
    read as (-1)^j times the t^(j + p - 1) coefficient of the K-polynomial."""
    profile = diagonal_profile(part)
    p = part.depth
    k = k_polynomial(profile.df, p, profile.sigma).coeffs
    return GradedBettiTable(
        tuple(
            (j, j + p - 1, -k[j + p - 1] if j % 2 else k[j + p - 1])
            for j in range(1, profile.delta + 1)
        )
    )


def betti_ambient_indexed(profile: DiagonalProfile, n: int, j: int) -> int:
    """beta_j as betti_cm(c, p, j) plus the binomial sum over the deviations
    s_i = (count of diagonal c + d - i) with d = n - c, in an ambient ring of
    n variables: an independent reference for ``betti_table``, which no
    command calls."""
    c, p = profile.df, profile.depth
    d = n - c
    total = betti_cm(c, p, j)
    for i in range(d):
        s_i = profile.count(c + d - i)
        total += s_i * math.comb(n - i - 1, j - 1)
    return total


class MappingConeStep(NamedTuple):
    phi: PFerrerPartition
    phi_prime: PFerrerPartition
    removed: Box
    delta: int
    table: GradedBettiTable
    table_prime: GradedBettiTable
    recurrence_holds: bool


def mapping_cone_step(part: PFerrerPartition) -> MappingConeStep:
    """Remove one last-diagonal box and check
    beta_j(Phi) = beta_j(Phi') + C(delta(Phi)-1, j-1) for every j."""
    smaller, removed = remove_last_diagonal_box(part)
    table = betti_table(part)
    table_prime = betti_table(smaller)
    delta = table.projdim
    holds = all(
        table.beta(j) == table_prime.beta(j) + math.comb(delta - 1, j - 1)
        for j in range(1, delta + 1)
    )
    return MappingConeStep(part, smaller, removed, delta, table, table_prime, holds)


def regularity(part: PFerrerPartition) -> tuple[int, int]:
    """(regularity of the ideal, regularity of the quotient) = (p, p-1)."""
    return part.depth, part.depth - 1


@dataclass(frozen=True)
class HomologicalSummary:
    n: int
    height: int
    dim: int
    depth: int
    projdim: int
    ara: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "height": self.height,
            "dim": self.dim,
            "depth": self.depth,
            "projdim": self.projdim,
            "ara": self.ara,
        }


def homological_summary(part: PFerrerPartition) -> HomologicalSummary:
    profile = diagonal_profile(part)
    n = len(ferrer_ideal(part).ambient)
    c = profile.df
    delta = profile.delta
    return HomologicalSummary(
        n=n, height=c, dim=n - c, depth=n - delta, projdim=delta, ara=delta
    )


class AraWitness(NamedTuple):
    first: Box
    second: Box
    witness_class: int
    witness: Box


@dataclass(frozen=True)
class AraCertificate:
    """Diagonal classes K_1..K_delta of boxes plus, for each unordered pair
    inside a class, a box of a strictly earlier class whose monomial divides
    the product of the pair's.  This is the classical sufficient condition
    for the diagonal sums to cut out the ideal up to radical.  Every box
    stands for its generator, ``ideal.box_monomial(box)``."""

    classes: tuple[tuple[Box, ...], ...]
    witnesses: tuple[AraWitness, ...]

    @property
    def ara(self) -> int:
        return len(self.classes)


def ara_certificate(part: PFerrerPartition) -> AraCertificate:
    diagonal = {box: diagonal_index(box) for box in boxes(part)}
    by_diagonal: defaultdict[int, list[Box]] = defaultdict(list)
    for box in sorted(diagonal):
        by_diagonal[diagonal[box]].append(box)
    # up to the last diagonal; every diagonal before it is nonempty, by downward closure
    classes = tuple(tuple(by_diagonal[k]) for k in range(1, max(by_diagonal) + 1))
    witnesses = []
    for k, cls in enumerate(classes, start=1):
        for first, second in combinations(cls, 2):
            witness = _lowered_box(first, second)
            # a witness outside the diagram gets class k, and so fails
            witness_diag = diagonal.get(witness, k)
            # a box monomial divides lcm(first, second) exactly when each of
            # its coordinates is the first's or the second's
            divides = all(map(tuple.__contains__, zip(first, second), witness))
            if witness_diag >= k or not divides:
                raise CertificateFailure(
                    f"no earlier-class divisor for pair {first}, {second}"
                )
            witnesses.append(AraWitness(first, second, witness_diag, witness))
    return AraCertificate(classes, tuple(witnesses))


def _lowered_box(a: Box, b: Box) -> Box:
    """Replace, at the first position where a and b differ, the larger
    coordinate by the smaller; the result stays in the diagram by closure."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            source = a if x > y else b
            return source[:i] + (min(x, y),) + source[i + 1 :]
    raise ValueError("boxes are equal")


def betti_bounds_check(table: GradedBettiTable, c: int, n: int, depth: int) -> bool:
    """betti_cm(c,p,j) <= beta_j <= betti_cm(n-depth,p,j) for every j, with p
    the generation degree, that of the j = 1 entries."""
    p = min(table.degrees(1))
    upper_c = n - depth
    return all(
        betti_cm(c, p, j) <= table.beta(j) <= betti_cm(upper_c, p, j)
        for j in range(1, max(table.projdim, upper_c) + 1)
    )


def scaled_resolution_type(
    degrees, betti, alpha: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Substituting every variable by its alpha-th power multiplies the pure
    type by alpha and leaves the Betti numbers unchanged."""
    degrees = tuple(degrees)
    betti = tuple(betti)
    if alpha < 1:
        raise ValueError("alpha must be positive")
    if any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")
    return tuple(a * alpha for a in degrees), betti


@dataclass(frozen=True)
class PureCodim2:
    beta1: int
    beta2: int
    c: int | None
    alpha: int | None


def pure_codim2_betti(a1: int, a2: int, beta0: int) -> PureCodim2 | None:
    """Betti numbers forced on a codimension-2 Cohen-Macaulay module with pure
    type (0, a1, a2): beta1 = a2 beta0/(a2-a1), beta2 = a1 beta0/(a2-a1).
    Returns None when those quotients are not integers."""
    if not 0 < a1 < a2:
        raise ValueError("need 0 < a1 < a2")
    gap = a2 - a1
    if (a2 * beta0) % gap or (a1 * beta0) % gap:
        return None
    c = alpha = None
    if a1 % gap == 0:
        alpha = gap
        c = a1 // gap
    return PureCodim2(a2 * beta0 // gap, a1 * beta0 // gap, c, alpha)
