"""M-vector machinery: Macaulay bounds, revlex segment multicomplexes, and the
correspondence turning a multicomplex into a staircase diagram by shifting all
exponents up by one."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple

from .diagram import PFerrerPartition, partition_from_boxes
from .errors import BadHVector, CountOutOfRange, NotClosedUnderDivision, NotMVector
from .ideal import MonomialIdeal, ferrer_dual, ferrer_ideal
from .limits import DEFAULT_LIMITS, Limits
from .series import h_vector, hilbert_series_monomial

Exponents = tuple[int, ...]


class MVectorCheck(NamedTuple):
    ok: bool
    index: int | None  # position of the first entry exceeding its bound
    bound: int | None


def macaulay_representation(a: int, i: int) -> list[tuple[int, int]]:
    """Greedy expansion a = C(a_i, i) + C(a_{i-1}, i-1) + ... with a_i > a_{i-1} > ..."""
    rep = []
    while a > 0 and i > 0:
        top = i
        while math.comb(top + 1, i) <= a:
            top += 1
        rep.append((top, i))
        a -= math.comb(top, i)
        i -= 1
    return rep


def macaulay_bound(a: int, i: int) -> int:
    """a^<i>: the largest admissible next entry after a in degree i."""
    return sum(math.comb(top + 1, low + 1) for top, low in macaulay_representation(a, i))


def is_m_vector(h) -> MVectorCheck:
    """Macaulay growth test; reports the first violating index and its bound
    (0 and 1 when h_0 is not 1).  A negative entry raises BadHVector."""
    h = _nonnegative(h)
    if not h or h[0] != 1:
        return MVectorCheck(False, 0, 1)
    for i in range(1, len(h) - 1):
        bound = macaulay_bound(h[i], i)
        if h[i + 1] > bound:
            return MVectorCheck(False, i + 1, bound)
    return MVectorCheck(True, None, None)


def revlex_key(exponents: Exponents) -> tuple[int, ...]:
    """Sort key realizing reverse lexicographic order with x_1 > ... > x_n."""
    return tuple(reversed(exponents))


def revlex_segment(nvars: int, degree: int, count: int) -> list[Exponents]:
    """First ``count`` degree-``degree`` monomials in revlex order, as exponent tuples."""
    if degree == 0:
        available = 1
    else:
        available = math.comb(nvars + degree - 1, degree) if nvars > 0 else 0
    if not 0 <= count <= available:
        raise CountOutOfRange(
            f"count {count} outside 0..{available} for degree {degree} in {nvars} variables"
        )
    if degree == 0:
        return [(0,) * nvars] if count else []
    # revlex puts the C(m + degree - 1, degree) monomials in the first m
    # variables before all others, so the fewest such m suffice
    used = 0
    while math.comb(used + degree - 1, degree) < count:
        used += 1
    monomials = []
    for combo in combinations_with_replacement(range(used), degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        monomials.append(tuple(exps))
    monomials.sort(key=revlex_key)
    return monomials[:count]


class Multicomplex(NamedTuple):
    """Finite divisibility-closed set of monomials in nvars variables."""

    monomials: frozenset[Exponents]
    nvars: int

    def degree_census(self) -> tuple[int, ...]:
        tally: dict[int, int] = {}
        for m in self.monomials:
            d = sum(m)
            tally[d] = tally.get(d, 0) + 1
        top = max(tally)
        return tuple(tally.get(d, 0) for d in range(top + 1))


def _check_closed(monomials: set[Exponents]) -> None:
    for m in monomials:
        for i, e in enumerate(m):
            if e > 0:
                lower = m[:i] + (e - 1,) + m[i + 1 :]
                if lower not in monomials:
                    raise NotClosedUnderDivision(
                        f"{m} present but its divisor {lower} is missing"
                    )


def _nonnegative(h) -> tuple[int, ...]:
    """h as a tuple; its first negative entry raises BadHVector."""
    h = tuple(h)
    for index, entry in enumerate(h):
        if entry < 0:
            raise BadHVector(f"h_{index} = {entry} is negative")
    return h


def multicomplex_from_mvector(h) -> Multicomplex:
    """Union of the leading revlex segments, one per degree; checked for closure."""
    check = is_m_vector(h)
    if not check.ok:
        raise NotMVector(check.index, check.bound)
    nvars = max(h[1] if len(h) > 1 else 0, 1)
    monomials: set[Exponents] = set()
    for degree, count in enumerate(h):
        monomials.update(revlex_segment(nvars, degree, count))
    _check_closed(monomials)
    return Multicomplex(frozenset(monomials), nvars)


def diagram_from_multicomplex(mc: Multicomplex) -> PFerrerPartition:
    """Shift every exponent vector up by one; closure of the multicomplex makes
    the image a downward-closed box set, hence a valid diagram."""
    shifted = {tuple(e + 1 for e in m) for m in mc.monomials}
    return partition_from_boxes(shifted, mc.nvars)


class Realization(NamedTuple):
    diagram: PFerrerPartition
    ideal: MonomialIdeal
    dual: MonomialIdeal
    dual_h_vector: tuple[int, ...]
    verified: bool


def realize_mvector(h, limits: Limits = DEFAULT_LIMITS) -> Realization:
    """Build the diagram realizing h as diagonal counts and verify, through the
    independent series route, that h is the h-vector of the dual quotient.
    The dual's generators are the diagram's minimal primes, read off its
    intersection decomposition by ``ferrer_dual`` rather than searched for.
    The diagram has sum(h) boxes, checked against ``max_boxes`` once no entry
    is negative.  Its ideal has one variable per value of each box coordinate,
    (largest exponent + 1) per multicomplex variable, checked against the
    hitting-set limit, which still bounds the dual, before the diagram is
    built."""
    h = _nonnegative(h)
    limits.check("max_boxes", sum(h))
    while len(h) > 1 and h[-1] == 0:
        h = h[:-1]
    mc = multicomplex_from_mvector(h)
    limits.check("hitting_set_max_variables", sum(map(max, zip(*mc.monomials))) + mc.nvars)
    diagram = diagram_from_multicomplex(mc)
    ideal = ferrer_ideal(diagram)
    dual = ferrer_dual(diagram, limits)
    dual_h = h_vector(hilbert_series_monomial(dual, limits))
    return Realization(diagram, ideal, dual, dual_h, dual_h == h)
