"""Monomial ideals over grouped variables.

Variables come in groups 1..p; the canonical order is descending group, then
ascending index, which fixes the printed form of every monomial and ideal.
The graded Betti table of a quotient lives here too, so that the closed form
(``invariants``) and the oracle return one type without importing each other.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .diagram import Box, PFerrerPartition, boxes, group_sizes
from .errors import DepthOne, NotSquarefree
from .limits import DEFAULT_LIMITS, Limits


class Variable(NamedTuple):
    group: int
    index: int

    def __str__(self):
        return "x%d_%d" % self


def variable_key(v: Variable) -> tuple[int, int]:
    return (-v.group, v.index)


class Monomial(NamedTuple):
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
        return "*".join(
            ["x%d_%d" % v if e == 1 else "x%d_%d^%d" % (*v, e) for v, e in self.factors]
        )


MONOMIAL_ONE = Monomial(())


def monomial_key(m: Monomial):
    return tuple((variable_key(v), e) for v, e in m.factors)


def box_monomial(box: Box) -> Monomial:
    """The squarefree monomial of a box: one variable per coordinate group,
    built in canonical (descending group) order."""
    return Monomial(tuple((Variable(k, box[k - 1]), 1) for k in range(len(box), 0, -1)))


class MonomialIdeal(NamedTuple):
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
        exps = dict(m.factors)
        return any(all(exps.get(v, 0) >= e for v, e in g.factors) for g in self.generators)

    def masks(self) -> tuple[int, ...]:
        """The generators as int bitmasks of their polarization, in order,
        each ambient variable owning one block in ambient order (see
        ``_polarize``); so for a squarefree ideal bit i is ``ambient[i]``."""
        return _polarize((self.generators,), self.ambient)[2][0]

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _polarize(
    groups: Sequence[Sequence[Monomial]], ambient: Iterable[Variable]
) -> tuple[dict[Variable, int], dict[Variable, int], list[tuple[int, ...]]]:
    """One joint polarization of several lists of monomials, as int bitmasks.

    Each variable of ``ambient``, in order, owns a block of max(1, e) bits, e
    being its largest exponent in any of the lists, and x^a sets the lowest a
    bits of x's block.  Exponents become nested low-bit masks, so under one
    polarization a monomial divides another exactly when its mask is a
    submask of the other's, the OR of two masks is their lcm's, and the
    popcount of a mask's block is its exponent.  Returns each variable's
    block offset, the block widths above 1, and the lists' masks in order.
    The ambient must hold every variable the lists use.
    """
    width: dict[Variable, int] = {}
    for group in groups:
        for g in group:
            for v, e in g.factors:
                if e > width.get(v, 1):
                    width[v] = e
    offset, bit = {}, 0
    for v in ambient:
        offset[v] = bit
        bit += width.get(v, 1)
    return offset, width, [
        tuple([sum([((1 << e) - 1) << offset[v] for v, e in g.factors]) for g in group])
        for group in groups
    ]


def _antichain_ideal(gens: Iterable[Monomial], ambient: Iterable[Variable] = ()) -> MonomialIdeal:
    """The ideal of distinct, pairwise non-dividing ``gens`` (not checked):
    generators in canonical order, ambient joined with their support."""
    gens = sorted(gens, key=monomial_key)
    support = {v for g in gens for v in g.support}
    support.update(ambient)
    return MonomialIdeal(tuple(gens), tuple(sorted(support, key=variable_key)))


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _minimal_masks(masks) -> list[int]:
    """The distinct masks, by ascending popcount, that have no other as a submask."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def _minimal_ors(groups: Iterable[Sequence[int]]) -> list[int]:
    """The minimal ORs of one mask from each group: from the empty OR 0, each
    group's masks in turn are ORed into the minimal ones so far, keeping the
    minimal results (an OR above a dropped one is above a kept one).  Under
    one polarization, the minimal lcms of one generator from each list."""
    minimal = [0]
    for masks in groups:
        minimal = _minimal_masks(g | h for g in minimal for h in masks)
    return minimal


def _decode(masks: Iterable[int], width: dict[Variable, int],
            ambient: Sequence[Variable]) -> MonomialIdeal:
    """The ideal of pairwise non-submask ``masks`` under a ``_polarize``
    width, each ambient variable owning its block of bits in turn, so
    ``width={}`` reads bit i as ``ambient[i]``.

    Bit i stands for the factor (owner, rank of i in its block, from 1),
    and a mask's factors are its top set bit in each block: the set bits
    whose next bit is unset or in another block, ``m & ~(inner & m >> 1)``
    with ``inner`` marking the bits whose next bit is in the same block.
    ``ambient`` must be in canonical order; then ascending bits are
    ascending factors, and sorting the masks' rows of bits as int lists
    sorts their monomials by ``monomial_key``."""
    factor: list[tuple[Variable, int]] = []
    inner = 0
    for v in ambient:
        w = width.get(v, 1)
        inner |= ((1 << (w - 1)) - 1) << len(factor)
        factor.extend([(v, e) for e in range(1, w + 1)])
    rows = sorted([_bit_indices(m & ~(inner & m >> 1)) for m in masks])
    gens = tuple([Monomial(tuple([factor[i] for i in row])) for row in rows])
    return MonomialIdeal(gens, tuple(ambient))


class GradedBettiTable(NamedTuple):
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


def _group_variables(part: PFerrerPartition) -> list[tuple[Variable, ...]]:
    """x_{k,1..m_k} for each group k = p..1, with m_k from ``group_sizes``:
    the diagram ideal's variables, in canonical order, since the boxes are
    downward closed."""
    sizes = group_sizes(part)
    return [
        tuple(Variable(k, a) for a in range(1, size + 1))
        for k, size in zip(range(len(sizes), 0, -1), sizes)
    ]


def ferrer_ideal(part: PFerrerPartition) -> MonomialIdeal:
    """One squarefree degree-p generator per box of the diagram.

    Distinct boxes give distinct squarefree monomials of one degree, which
    already form an antichain.  A box's reversed coordinates index its
    variables in groups p..1, and ``boxes`` orders the boxes by them, which
    orders their monomials by ``monomial_key``; so the ideal is built
    directly in canonical form, as ``box_monomial`` would build each
    generator, from one shared (variable, 1) factor per variable.
    """
    groups = _group_variables(part)
    rows = [[(v, 1) for v in group] for group in groups]
    gens = tuple(
        Monomial(tuple([row[a - 1] for row, a in zip(rows, box[::-1])]))
        for box in boxes(part)
    )
    return MonomialIdeal(gens, tuple(v for group in groups for v in group))


def _runs(children) -> list[tuple[int, int]]:
    """Maximal runs of equal consecutive children, as 0-based [start, end) pairs."""
    runs = []
    start = 0
    for i in range(1, len(children) + 1):
        if i == len(children) or children[i] != children[start]:
            runs.append((start, i))
            start = i
    return runs


def equal_runs(part: PFerrerPartition) -> tuple[tuple[int, int], ...]:
    """Maximal runs of equal consecutive children, as 1-based (start, end) pairs."""
    return tuple((start + 1, end) for start, end in _runs(part.children))


def intersection_decomposition(part: PFerrerPartition) -> tuple[MonomialIdeal, ...]:
    """Write the diagram ideal as an intersection of linear-plus-tail ideals.

    Q_1 is generated by all the last-group variables.  Then, for each run of
    equal children from the last to the first, one component is generated by
    x_{p,1..s}, s being the number of children before the run (none for the
    first run), together with the generators of the run's child's ideal: an
    antichain, since the child's variables lie in groups below p.
    """
    if part.depth == 1:
        raise DepthOne("the decomposition is trivial in depth 1")
    children = part.children
    linear = [Monomial(((Variable(part.depth, i), 1),)) for i in range(1, len(children) + 1)]
    components = [_antichain_ideal(linear)]
    for start, _ in reversed(_runs(children)):
        components.append(
            _antichain_ideal([*linear[:start], *ferrer_ideal(children[start]).generators])
        )
    return tuple(components)


def minimal_primes(
    ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS
) -> frozenset[frozenset[Variable]]:
    """Inclusion-minimal variable sets meeting the support of every generator,
    for any squarefree ideal, by brute force: the supports of the generators
    of ``alexander_dual``.  A diagram ideal's are read off its decomposition
    by ``ferrer_dual``; this route stays for other ideals and the tests."""
    return frozenset(frozenset(g.support) for g in alexander_dual(ideal, limits).generators)


def _diagram_primes(part: PFerrerPartition, offsets: dict[int, int]) -> set[int]:
    """The minimal primes of a diagram ideal as masks, group k's variable
    x_{k,a} being bit ``offsets[k] + a - 1``.

    Depth 1 has one prime, every variable.  At depth p >= 2, with runs
    r = 1..R of equal children, c_r the child of run r and L_r the group-p
    variables of runs 1..r, the intersection decomposition gives
        primes = {L_R} + union over r of {L_{r-1} + P : P in primes(c_r) - primes(c_{r-1})}
    with primes(c_0) empty; these sets are already minimal.  The runs are
    those of ``intersection_decomposition``, from the same ``_runs``.  Run 1
    adds primes(c_1) unchanged (L_0 is empty), so that set becomes this node's
    rather than a copy, and run 2 takes its difference before ``update``.
    """
    base = offsets[part.depth]
    if part.is_leaf:
        return {((1 << part.value) - 1) << base}
    children = part.children
    primes = previous = _diagram_primes(children[0], offsets)
    for start, _ in _runs(children)[1:]:
        current = _diagram_primes(children[start], offsets)
        linear = ((1 << start) - 1) << base
        primes.update(linear | q for q in current - previous)
        previous = current
    primes.add(((1 << len(children)) - 1) << base)
    return primes


def ferrer_dual(part: PFerrerPartition, limits: Limits = DEFAULT_LIMITS) -> MonomialIdeal:
    """The Alexander dual of the diagram ideal: one generator per minimal
    prime, read off the intersection decomposition, with no hitting-set
    search.  Equal to ``alexander_dual(ferrer_ideal(part), limits)``, and
    bounded by the same hitting-set limit, checked first."""
    groups = _group_variables(part)
    ambient = tuple(v for group in groups for v in group)
    limits.check("hitting_set_max_variables", len(ambient))
    offsets = dict(zip(range(part.depth, 0, -1), accumulate(map(len, groups), initial=0)))
    return _decode(_diagram_primes(part, offsets), {}, ambient)


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal (I : m), generated by g / gcd(g, m)."""
    return MonomialIdeal.make((g.colon(m) for g in ideal.generators), ambient=ideal.ambient)


def alexander_dual(ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS) -> MonomialIdeal:
    """Squarefree dual of any squarefree ideal: one generator per minimal
    prime, the minimal ORs of one bit from each distinct generator mask, in
    ascending order (on the 5^4 box's 2,500 generators, set order ORs 74
    times as many pairs); an involution.  NotSquarefree for any other ideal.
    A diagram ideal's dual comes from ``ferrer_dual`` without that search."""
    if not ideal.is_squarefree:
        raise NotSquarefree("minimal primes require a squarefree ideal")
    limits.check("hitting_set_max_variables", len(ideal.ambient))
    groups = ([1 << i for i in _bit_indices(g)] for g in sorted(set(ideal.masks())))
    return _decode(_minimal_ors(groups), {}, ideal.ambient)
