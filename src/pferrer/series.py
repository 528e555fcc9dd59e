"""Exact rational Hilbert-series arithmetic.

Everything here is integer-exact: numerators are integer polynomials in t and
denominators are powers of (1 - t).  Series are kept canonical, meaning the
numerator is not divisible by (1 - t), so equal values compare equal even when
they were produced at different denominator exponents.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import NotPLinearShape
from .ideal import MonomialIdeal
from .limits import DEFAULT_LIMITS, Limits


class IntPolynomial(NamedTuple):
    """Integer polynomial; coeffs[k] is the coefficient of t^k, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "IntPolynomial":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPolynomial(tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs)
        _add_into(out, other.coeffs)
        return IntPolynomial.of(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs)
        _add_into(out, [-c for c in other.coeffs])
        return IntPolynomial.of(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.of(out)

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __pow__(self, n: int) -> "IntPolynomial":
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def substitute_one_minus_t(self) -> "IntPolynomial":
        """The polynomial P(1 - t), as R(-t) for R(t) = P(1 + t): Horner in
        place, each step multiplying by (1 + t), that is adding t times itself."""
        out: list[int] = []
        for c in reversed(self.coeffs):
            _add_into(out, out[:], 1)
            _add_into(out, (c,))
        return IntPolynomial.of(-c if k % 2 else c for k, c in enumerate(out))

    def divide_by_one_minus_t(self) -> "IntPolynomial | None":
        """Exact quotient by (1 - t), or None when (1 - t) does not divide."""
        if sum(self.coeffs) != 0:
            return None
        return IntPolynomial.of(accumulate(self.coeffs[:-1]))

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                power = "t" if k == 1 else f"t^{k}"
                term = power if mag == 1 else f"{mag}{power}"
            sign = "-" if c < 0 else "+"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign}{term}")
        return "".join(parts)


def _add_into(out: list[int], coeffs, at: int = 0) -> None:
    """out += t^at * coeffs, in place, growing out as needed."""
    end = at + len(coeffs)
    out.extend([0] * (end - len(out)))
    out[at:end] = map(operator.add, out[at:end], coeffs)


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))
ONE_MINUS_T = IntPolynomial((1, -1))


def _one_minus_t_power(e: int) -> IntPolynomial:
    """(1 - t)^e, its coefficients (-1)^k C(e, k) built by the recurrence
    C(e, k + 1) = C(e, k) (e - k) / (k + 1): e small products, where the
    power by repeated multiplication takes e^2 / 2."""
    coeffs = [1]
    for k in range(e):
        coeffs.append(-coeffs[-1] * (e - k) // (k + 1))
    return IntPolynomial(tuple(coeffs))


class _SeriesFields(NamedTuple):
    numerator: IntPolynomial
    denom_exponent: int


class RationalSeries(_SeriesFields):
    """numerator / (1 - t)^denom_exponent, stored in canonical form.

    Every construction cancels the factors (1 - t) of the numerator.
    ``_make`` and ``_replace`` would skip that, so nothing calls them."""

    __slots__ = ()

    def __new__(cls, numerator: IntPolynomial, denom_exponent: int) -> "RationalSeries":
        num, d = numerator, denom_exponent
        if num.is_zero:
            d = 0
        while not num.is_zero:
            quotient = num.divide_by_one_minus_t()
            if quotient is None:
                break
            num, d = quotient, d - 1
        return super().__new__(cls, num, d)

    def taylor(self, degree: int) -> tuple[int, ...]:
        """Series coefficients of t^0 .. t^degree."""
        num, d = self.numerator, self.denom_exponent
        if d < 0:
            num, d = num * _one_minus_t_power(-d), 0
        size = max(degree + 1, 0)
        out = list(num.coeffs[:size])
        out += [0] * (size - len(out))
        for _ in range(d):  # a prefix sum multiplies by 1/(1 - t), truncated at t^size
            out = list(accumulate(out))
        return tuple(out)

    def pretty(self) -> str:
        num = self.numerator.pretty()
        if self.denom_exponent == 0:
            return num
        denom = "(1-t)" if self.denom_exponent == 1 else f"(1-t)^{self.denom_exponent}"
        return f"({num})/{denom}"

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator.coeffs),
            "denom_exponent": self.denom_exponent,
        }


def h_poly(c: int, p: int) -> IntPolynomial:
    """Degree p-1 polynomial whose t^i coefficient is C(c+i-1, i)."""
    if c < 1 or p < 1:
        raise ValueError("c and p must be positive")
    return IntPolynomial.of(math.comb(c + i - 1, i) for i in range(p))


def duality_identity_check(c: int, p: int) -> bool:
    """Exact check of 1 - h(c,p)(1-t) t^c == h(p,c)(t) (1-t)^p and the mod-t^p congruence."""
    lhs = ONE - h_poly(c, p).substitute_one_minus_t().shift(c)
    rhs = h_poly(p, c) * _one_minus_t_power(p)
    congruence = not any((h_poly(c, p) * _one_minus_t_power(c) - ONE).coeffs[:p])
    return lhs == rhs and congruence


def deviation_poly(sigma) -> IntPolynomial:
    """sum_i sigma_i (1-t)^(i-1) for sigma = (sigma_1, sigma_2, ...)."""
    return IntPolynomial.of(sigma).substitute_one_minus_t()


def linear_numerator(c: int, p: int, sigma) -> IntPolynomial:
    """h(c,p) - t^p deviation_poly(sigma): hilbert_series_linear's numerator, uncancelled."""
    return h_poly(c, p) - deviation_poly(sigma).shift(p)


def k_polynomial(numerator: IntPolynomial, c: int) -> IntPolynomial:
    """``numerator`` (1 - t)^c, for the ``linear_numerator`` of height c: the
    numerator of the series over (1 - t)^n, whatever n.  For a p-linear
    resolution it is sum_j (-1)^j beta_j t^(j + p - 1), so the Betti numbers
    are read off it."""
    return numerator * _one_minus_t_power(c)


def _dual_numerator(c: int, p: int, sigma) -> IntPolynomial:
    """h(p,c) + t^c sum_i sigma_i t^(i-1): the numerator of the dual series."""
    return h_poly(p, c) + IntPolynomial.of(sigma).shift(c)


def hilbert_series_linear(c: int, p: int, sigma, d: int) -> RationalSeries:
    """Series of a quotient with resolution linear in degree p, height c,
    diagonal deviations sigma (sigma_i counts diagonal c+i), dimension d."""
    sigma = tuple(sigma)
    if d < len(sigma):
        raise ValueError("denominator exponent smaller than deviation length")
    return RationalSeries(linear_numerator(c, p, sigma), d)


def hilbert_series_monomial(
    ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS
) -> RationalSeries:
    """Series of S/I computed from the generators alone.

    The generators are taken as the squarefree bitmasks of their polarization
    (``MonomialIdeal.masks``).  Polarization keeps the numerator over (1-t)^n
    (the K-polynomial), so the denominator exponent stays the number of
    ambient variables.  The numerator comes from pivot splitting on the most
    frequent variable (``_numerator_splitting``).
    """
    limits.check("series_recursion_max_generators", len(ideal.generators))
    return RationalSeries(
        IntPolynomial.of(_numerator_splitting(frozenset(ideal.masks()))),
        len(ideal.ambient),
    )


@lru_cache(maxsize=4096)
def _numerator_splitting(gens: frozenset[int]) -> tuple[int, ...]:
    """Numerator over (1-t)^N of S/I for the squarefree ideal I whose minimal
    generators are the bitmasks ``gens`` (N being any count of variables that
    covers their bits).

    Each round of the loop either ends in a closed form or replaces I by a
    colon ideal, so only the "without x" branch recurses, on strictly fewer
    generators.  Three rules:

    - no generators: 1; the unit ideal: 0;
    - pairwise coprime generators: the product of (1 - t^deg g);
    - otherwise Bigatti's pivot on the most frequent variable x (highest bit
      on ties): K(I) = (1 - t) K(generators without x) + t K(I : x).  A
      factor of degree d in every generator takes d pivots, with nothing
      left without x, adding (1 - t)(1 + t + ... + t^(d-1)) = 1 - t^d.

    The memo is shared by every call in the process and bounded at 4096
    entries, above the 1,561 that all 480 ops of the macaulay benchmark pool
    make together (2.7 KB an entry, by tracemalloc) and the 873 of the 304
    verify pool ops (0.8 KB); full, it holds about 11 MB.
    """
    out = [0]
    shift = 0  # K(original gens) = out + t^shift * K(gens)

    while gens and 0 not in gens:
        union = total = 0
        for g in gens:
            union |= g
            total += g.bit_count()
        if total == union.bit_count():
            product = [1] + [0] * total
            for g in gens:
                d = g.bit_count()
                for i in range(total, d - 1, -1):
                    product[i] -= product[i - d]
            _add_into(out, product, shift)
            break
        else:
            pivot = _most_frequent_bit(gens)
            without = frozenset(g for g in gens if not g & pivot)
            rest = _numerator_splitting(without)
            _add_into(out, rest, shift)
            _add_into(out, [-c for c in rest], shift + 1)
            shift += 1
            reduced = [g ^ pivot for g in gens if g & pivot]
            kept = []
            for h in without:
                for r in reduced:
                    if r & h == r:
                        break
                else:
                    kept.append(h)
            gens = frozenset(reduced + kept)
    else:
        if not gens:  # else a zero mask is left: the unit ideal, whose K is 0
            _add_into(out, (1,), shift)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _most_frequent_bit(gens: frozenset[int]) -> int:
    """The bit set in the most generators; the highest such bit on ties.

    The counts are bit-sliced: bit b of ``counters[k]`` is bit k of the
    count of bit b, and each generator is added to all counts at once with
    a ripple carry.  From the highest counter down, the bits that have the
    counter's bit set, if any do, survive; the survivors share the largest
    count."""
    counters: list[int] = []
    for carry in gens:
        for k, counter in enumerate(counters):
            counters[k] = counter ^ carry
            carry &= counter
            if not carry:
                break
        else:
            counters.append(carry)
    survivors = -1
    for counter in reversed(counters):
        if survivors & counter:
            survivors &= counter
    return 1 << (survivors.bit_length() - 1)


def extract_s_vector(series: RationalSeries, c: int, p: int) -> tuple[int, ...]:
    """Invert hilbert_series_linear: recover the diagonal deviations.

    The canonical numerator must agree with h(c,p) below degree p; the excess,
    shifted down by t^p, is rewritten in the basis (1-t)^(i-1) and must have
    nonnegative coefficients.
    """
    excess = h_poly(c, p) - series.numerator
    if any(excess.coeffs[:p]):
        raise NotPLinearShape(
            f"numerator does not match the height-{c} degree-{p} shape below degree {p}"
        )
    rewritten = IntPolynomial(excess.coeffs[p:]).substitute_one_minus_t()
    sigma = rewritten.coeffs
    if any(s < 0 for s in sigma):
        raise NotPLinearShape("negative diagonal count under the basis change")
    return tuple(sigma)


def dual_series(c: int, p: int, sigma, n: int) -> tuple[RationalSeries, RationalSeries]:
    """The series of S/I and of S/I* for a squarefree I with p-linear resolution,
    height c, diagonal deviations sigma, in an ambient ring of dimension n."""
    sigma = tuple(sigma)
    primal = hilbert_series_linear(c, p, sigma, n - c)
    return primal, RationalSeries(_dual_numerator(c, p, sigma), n - p)


def betti_polynomial_relation_holds(c: int, p: int, sigma, n: int) -> bool:
    """B_{S/J}(t) == 1 - B_{S/I}(1-t) after clearing denominators to exponent n."""
    sigma = tuple(sigma)
    one_minus_primal_b = k_polynomial(linear_numerator(c, p, sigma), c)
    one_minus_dual_b = _dual_numerator(c, p, sigma) * _one_minus_t_power(p)
    dual_b = ONE - one_minus_dual_b
    primal_b_at_one_minus_t = (ONE - one_minus_primal_b).substitute_one_minus_t()
    return dual_b == ONE - primal_b_at_one_minus_t


def h_vector(series: RationalSeries) -> tuple[int, ...]:
    """Coefficients of the canonical numerator."""
    return series.numerator.coeffs
