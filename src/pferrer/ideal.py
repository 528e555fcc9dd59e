"""Monomial ideals over grouped variables.

Variables come in groups 1..p; the canonical order is descending group, then
ascending index, which fixes the printed form of every monomial and ideal.
The graded Betti table of a quotient lives here too, so that the closed form
(``invariants``) and the oracle return one type without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .diagram import Box, PFerrerPartition, boxes
from .errors import DepthOne, NotSquarefree, SizeLimitExceeded
from .limits import DEFAULT_LIMITS, Limits


class Variable(NamedTuple):
    group: int
    index: int

    def __str__(self):
        return f"x{self.group}_{self.index}"


def variable_key(v: Variable) -> tuple[int, int]:
    return (-v.group, v.index)


@dataclass(frozen=True)
class Monomial:
    """Exponent map stored as factors sorted in canonical variable order."""

    factors: tuple[tuple[Variable, int], ...]

    @staticmethod
    def of(exponents: dict[Variable, int]) -> "Monomial":
        items = [(v, e) for v, e in exponents.items() if e != 0]
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent")
        return Monomial(tuple(sorted(items, key=lambda it: variable_key(it[0]))))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def support(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def exponent(self, v: Variable) -> int:
        return dict(self.factors).get(v, 0)

    def divides(self, other: "Monomial") -> bool:
        exps = dict(other.factors)
        return all(exps.get(v, 0) >= e for v, e in self.factors)

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self.factors)
        for v, e in other.factors:
            exps[v] = max(exps.get(v, 0), e)
        return Monomial.of(exps)

    def colon(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other)."""
        other_exps = dict(other.factors)
        return Monomial.of({v: e - min(e, other_exps.get(v, 0)) for v, e in self.factors})

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"{v}" if e == 1 else f"{v}^{e}" for v, e in self.factors)


MONOMIAL_ONE = Monomial(())


def monomial_key(m: Monomial):
    return tuple((variable_key(v), e) for v, e in m.factors)


def box_monomial(box: Box) -> Monomial:
    """The squarefree monomial of a box: one variable per coordinate group."""
    return Monomial.of({Variable(k, a): 1 for k, a in enumerate(box, start=1)})


@dataclass(frozen=True)
class MonomialIdeal:
    """Finite antichain of monomials plus the ambient variable set."""

    generators: tuple[Monomial, ...]
    ambient: tuple[Variable, ...]

    @staticmethod
    def make(gens: Iterable[Monomial], ambient: Iterable[Variable] | None = None) -> "MonomialIdeal":
        """The ideal of ``gens`` minimalized, for lists that may not be an antichain.

        Duplicates and generators divisible by another are dropped; the rest
        go through ``_antichain_ideal``.  In one pass by ascending degree a
        generator is kept unless a kept one divides it, which is exact because
        a dropped divisor has a kept divisor of its own.
        """
        minimal: list[Monomial] = []
        for g in sorted(set(gens), key=lambda m: m.degree):
            if not any(h.divides(g) for h in minimal):
                minimal.append(g)
        return _antichain_ideal(minimal, ambient or ())

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def masks(self) -> tuple[int, ...]:
        """The generators as int bitmasks of their polarization, in order.

        Each ambient variable, in order, owns a block of max(1, e) bits, e
        being its largest exponent, and x^a sets the lowest a bits of x's
        block; so for a squarefree ideal bit i is ``ambient[i]``.
        """
        width: dict[Variable, int] = {}
        for g in self.generators:
            for v, e in g.factors:
                if e > width.get(v, 1):
                    width[v] = e
        offset, bit = {}, 0
        for v in self.ambient:
            offset[v] = bit
            bit += width.get(v, 1)
        return tuple(
            sum(((1 << e) - 1) << offset[v] for v, e in g.factors)
            for g in self.generators
        )

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _antichain_ideal(gens: Iterable[Monomial], ambient: Iterable[Variable] = ()) -> MonomialIdeal:
    """The ideal of distinct, pairwise non-dividing ``gens`` (not checked):
    generators in canonical order, ambient joined with their support."""
    gens = sorted(gens, key=monomial_key)
    support = {v for g in gens for v in g.support}
    support.update(ambient)
    return MonomialIdeal(tuple(gens), tuple(sorted(support, key=variable_key)))


@dataclass(frozen=True)
class GradedBettiTable:
    """Graded Betti numbers of a quotient S/I, the closed form's and the
    oracle's alike: entries (homological index j, internal degree, value),
    sorted, nonzero, for j >= 1 only.  So ``beta(0)`` is 0, which is also
    right for the unit ideal, whose quotient is zero."""

    entries: tuple[tuple[int, int, int], ...]

    @staticmethod
    def of(data: dict[tuple[int, int], int]) -> "GradedBettiTable":
        return GradedBettiTable(
            tuple((j, a, v) for (j, a), v in sorted(data.items()) if v)
        )

    def beta(self, j: int) -> int:
        return sum(v for jj, _, v in self.entries if jj == j)

    @property
    def projdim(self) -> int:
        return max((j for j, _, _ in self.entries), default=0)

    def totals(self) -> tuple[int, ...]:
        """beta_1, ..., beta_projdim, summed in one pass over the entries."""
        sums: dict[int, int] = {}
        for j, _, v in self.entries:
            sums[j] = sums.get(j, 0) + v
        return tuple(sums.get(j, 0) for j in range(1, max(sums, default=0) + 1))

    def degrees(self, j: int) -> set[int]:
        return {a for jj, a, _ in self.entries if jj == j}

    def to_json(self) -> list[dict]:
        return [{"j": j, "degree": a, "beta": v} for j, a, v in self.entries]


def ferrer_ideal(part: PFerrerPartition) -> MonomialIdeal:
    """One squarefree degree-p generator per box of the diagram.

    Distinct boxes give distinct squarefree monomials of one degree, which
    already form an antichain, so they go straight to ``_antichain_ideal``
    without ``MonomialIdeal.make``'s minimalization.
    """
    return _antichain_ideal(box_monomial(b) for b in boxes(part))


class IntersectionComponent(NamedTuple):
    linear: tuple[Variable, ...]
    tail: MonomialIdeal

    def ideal(self) -> MonomialIdeal:
        """The linear variables beside the tail's generators: an antichain,
        since a decomposition's tail lies in groups below the linear ones."""
        gens = [Monomial.of({v: 1}) for v in self.linear]
        gens.extend(self.tail.generators)
        return _antichain_ideal(gens)


def equal_runs(part: PFerrerPartition) -> tuple[tuple[int, int], ...]:
    """Maximal runs of equal consecutive children, as 1-based (start, end) pairs."""
    runs = []
    start = 0
    children = part.children
    for i in range(1, len(children) + 1):
        if i == len(children) or children[i] != children[start]:
            runs.append((start + 1, i))
            start = i
    return tuple(runs)


def intersection_decomposition(part: PFerrerPartition) -> tuple[IntersectionComponent, ...]:
    """Write the diagram ideal as an intersection of linear-plus-tail components.

    With runs r = 1..R of equal children (run r ending at child delta_r), the
    components are Q_1, ..., Q_{R+1}: Q_j is generated by the last-group
    variables of runs 1..R+1-j together with the ideal of run (R+2-j)'s child
    (no tail for j = 1, no linear part for j = R+1).
    """
    if part.depth == 1:
        raise DepthOne("the decomposition is trivial in depth 1")
    runs = equal_runs(part)
    p = part.depth
    run_vars = [
        tuple(Variable(p, i) for i in range(start, end + 1)) for start, end in runs
    ]
    run_tails = [ferrer_ideal(part.children[end - 1]) for _, end in runs]
    components = []
    total = len(runs) + 1
    for j in range(1, total + 1):
        linear = tuple(v for vars_ in run_vars[: total - j] for v in vars_)
        tail = run_tails[total - j] if j >= 2 else _antichain_ideal(())
        components.append(IntersectionComponent(linear, tail))
    return tuple(components)


def _check_hitting_set(variable_count: int, limits: Limits) -> None:
    """The hitting-set limit on the ambient variables of ``minimal_primes``."""
    if variable_count > limits.hitting_set_max_variables:
        raise SizeLimitExceeded(
            f"{variable_count} variables exceed hitting-set limit "
            f"{limits.hitting_set_max_variables}"
        )


def minimal_primes(
    ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS
) -> frozenset[frozenset[Variable]]:
    """Inclusion-minimal variable sets meeting the support of every generator.

    Berge's transversal loop over the distinct generator masks in ascending
    order keeps ``covers`` exactly minimal: a cover meeting the next mask g
    is kept, one missing g grows by each bit of g, and a grown cover is
    dropped only when it contains a kept one (grown covers are pairwise
    incomparable, and none lies inside a kept one).
    """
    if not ideal.is_squarefree:
        raise NotSquarefree("minimal primes require a squarefree ideal")
    variables = ideal.ambient
    _check_hitting_set(len(variables), limits)
    covers = [0]
    for g in sorted(set(ideal.masks())):
        bits = [1 << i for i in range(g.bit_length()) if g >> i & 1]
        kept = [c for c in covers if c & g]
        grown = [c | bit for c in covers if not c & g for bit in bits]
        covers = kept + [c for c in grown if not any(k & c == k for k in kept)]
    return frozenset(
        frozenset(variables[i] for i in range(len(variables)) if (c >> i) & 1)
        for c in covers
    )


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal (I : m), generated by g / gcd(g, m)."""
    return MonomialIdeal.make((g.colon(m) for g in ideal.generators), ambient=ideal.ambient)


def alexander_dual(ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS) -> MonomialIdeal:
    """Squarefree dual: one generator per minimal prime; an involution.
    ``minimal_primes`` raises NotSquarefree for any other ideal."""
    primes = minimal_primes(ideal, limits)
    gens = [Monomial(tuple((v, 1) for v in sorted(p, key=variable_key))) for p in primes]
    return _antichain_ideal(gens, ideal.ambient)
