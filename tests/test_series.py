import math
import random

import pytest

from helpers import EX4322, random_partition
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import series as sr
from pferrer.errors import NotPLinearShape, TooManyGenerators
from pferrer.limits import Limits
from pferrer.oracle import hilbert_function_truncated

P = sr.IntPolynomial.of


def test_polynomial_basics():
    a = P([1, 2, 3])
    b = P([0, 1])
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - a).is_zero
    assert (a * b).coeffs == (0, 1, 2, 3)
    assert sum(a.coeffs) == 1 + 2 + 3
    assert P([0, 0, 1, 0]).coeffs == (0, 0, 1)
    assert a.shift(2).coeffs == (0, 0, 1, 2, 3)


def _add_by_lookup(a, b, sign=1):
    """a + sign * b, one coefficient lookup per index."""
    def at(poly, k):
        return poly.coeffs[k] if k < len(poly.coeffs) else 0

    n = max(len(a.coeffs), len(b.coeffs))
    return P(at(a, k) + sign * at(b, k) for k in range(n))


def _substitute_by_objects(poly):
    """P(1 - t) by Horner, one new polynomial per step."""
    result = sr.ZERO
    for c in reversed(poly.coeffs):
        result = _add_by_lookup(result * sr.ONE_MINUS_T, P([c]))
    return result


def _divide_by_value_at_one(poly):
    if poly.is_zero:
        return poly
    if sum(poly.coeffs) != 0:
        return None
    running, out = 0, []
    for c in poly.coeffs[:-1]:
        running += c
        out.append(running)
    return P(out)


def _taylor_by_binomials(series, degree):
    num, d = series.numerator, series.denom_exponent
    if d < 0:
        num, d = num * sr.ONE_MINUS_T ** (-d), 0
    out = []
    for k in range(degree + 1):
        total = 0
        for i in range(min(k, len(num.coeffs) - 1) + 1):
            total += num.coeffs[i] * (math.comb(d - 1 + k - i, k - i) if d > 0 else (k == i))
        out.append(total)
    return tuple(out)


def test_list_kernel_matches_object_per_step_arithmetic():
    rng = random.Random(71)
    polys = [sr.ZERO, sr.ONE, sr.ONE_MINUS_T, P([0, 0, 1])]
    polys += [
        P(rng.randint(-9, 9) for _ in range(rng.randint(0, 40))) for _ in range(150)
    ]
    for a in polys:
        b = rng.choice(polys)
        assert a + b == _add_by_lookup(a, b), (a, b)
        assert a - b == _add_by_lookup(a, b, -1), (a, b)
        assert a.substitute_one_minus_t() == _substitute_by_objects(a), a
        multiple = a * sr.ONE_MINUS_T
        assert a.divide_by_one_minus_t() == _divide_by_value_at_one(a), a
        assert multiple.divide_by_one_minus_t() == _divide_by_value_at_one(multiple), a
        series = sr.RationalSeries(a, rng.randint(-4, 12))
        degree = rng.randint(-2, 20)
        assert series.taylor(degree) == _taylor_by_binomials(series, degree), (series, degree)


def test_extract_s_vector_on_a_long_profile():
    part = dg.validate([1500])
    profile = dg.diagonal_profile(part)
    ideal = il.ferrer_ideal(part)
    series = sr.hilbert_series_linear(
        profile.df, part.depth, profile.sigma, len(ideal.ambient) - profile.df
    )
    limits = Limits(series_recursion_max_generators=len(ideal.generators))
    assert series == sr.hilbert_series_monomial(ideal, limits)
    assert sr.extract_s_vector(series, profile.df, part.depth) == profile.sigma


def test_deviation_poly_matches_the_term_by_term_sum():
    rng = random.Random(7)
    for _ in range(200):
        sigma = [rng.randint(0, 9) for _ in range(rng.randint(0, 12))]
        expected = sr.ZERO
        for i, s in enumerate(sigma, start=1):
            expected = expected + sr.ONE_MINUS_T ** (i - 1) * P([s])
        assert sr.deviation_poly(sigma) == expected, sigma


def test_polynomial_division_by_one_minus_t():
    quotient = P([1, 2, 3, -6]).divide_by_one_minus_t()
    assert quotient == P([1, 3, 6])
    assert P([1, 1]).divide_by_one_minus_t() is None


def test_polynomial_substitution():
    # (1 - t)^2 expanded back
    assert P([0, 0, 1]).substitute_one_minus_t() == P([1, -2, 1])
    assert P([1, 2, 3]).substitute_one_minus_t().substitute_one_minus_t() == P([1, 2, 3])


def test_series_canonicalization():
    series = sr.RationalSeries(P([1, 2, 3, -6]), 7)
    assert series.numerator == P([1, 3, 6])
    assert series.denom_exponent == 6
    assert series == sr.RationalSeries(P([1, 3, 6]), 6)


def test_series_pretty_and_taylor():
    series = sr.RationalSeries(P([1, 2, -1]), 2)
    assert series.pretty() == "(1+2t-t^2)/(1-t)^2"
    assert series.taylor(4) == (1, 4, 6, 8, 10)
    assert sr.RationalSeries(P([1]), 0).taylor(3) == (1, 0, 0, 0)


def test_h_poly_values():
    assert sr.h_poly(2, 2) == P([1, 2])
    assert sr.h_poly(3, 3) == P([1, 3, 6])
    for c in range(1, 6):
        assert sr.h_poly(c, 1) == P([1])


def test_h_poly_log_concavity():
    for c in range(1, 13):
        for p in range(1, 13):
            coeffs = sr.h_poly(c, p).coeffs
            for i in range(len(coeffs) - 2):
                assert coeffs[i] * coeffs[i + 2] <= coeffs[i + 1] ** 2


def test_duality_identity_small():
    assert sr.duality_identity_check(1, 1)
    assert sr.duality_identity_check(2, 3)


def test_duality_identity_exhaustive():
    for c in range(1, 9):
        for p in range(1, 9):
            assert sr.duality_identity_check(c, p)


def test_hilbert_series_linear_cm():
    series = sr.hilbert_series_linear(3, 3, (), 3)
    assert series.numerator == P([1, 3, 6]) and series.denom_exponent == 3


def test_hilbert_series_linear_square():
    series = sr.hilbert_series_linear(2, 2, (1,), 2)
    assert series.pretty() == "(1+2t-t^2)/(1-t)^2"


def test_hilbert_series_linear_rejects_short_denominator():
    with pytest.raises(ValueError):
        sr.hilbert_series_linear(2, 2, (1, 1, 1), 2)


def test_hilbert_series_monomial_principal_variable():
    ideal = il.MonomialIdeal.make([il.Monomial.of({il.Variable(1, 1): 1})])
    series = sr.hilbert_series_monomial(ideal)
    assert series.numerator == P([1]) and series.denom_exponent == 0


def test_hilbert_series_monomial_square():
    series = sr.hilbert_series_monomial(il.ferrer_ideal(dg.validate([2, 2])))
    assert series.pretty() == "(1+2t-t^2)/(1-t)^2"


def test_hilbert_series_monomial_matches_formula_on_example_4322():
    part = dg.validate(EX4322)
    ideal = il.ferrer_ideal(part)
    assert sr.hilbert_series_monomial(ideal) == sr.hilbert_series_linear(3, 3, (9, 2), 9)


def test_hilbert_series_monomial_matches_formula_random():
    rng = random.Random(47)
    for _ in range(12):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        profile = dg.diagonal_profile(part)
        ideal = il.ferrer_ideal(part)
        formula = sr.hilbert_series_linear(
            profile.df, part.depth, profile.sigma, len(ideal.ambient) - profile.df
        )
        assert sr.hilbert_series_monomial(ideal) == formula


def test_hilbert_series_monomial_generator_limit():
    ideal = il.ferrer_ideal(dg.validate([2, 2]))
    with pytest.raises(TooManyGenerators):
        sr.hilbert_series_monomial(ideal, Limits(series_recursion_max_generators=2))


def test_series_taylor_matches_truncated_counts():
    rng = random.Random(53)
    for _ in range(8):
        part = random_partition(rng, rng.choice([1, 2, 3]), max_children=3, max_leaf=3)
        ideal = il.ferrer_ideal(part)
        series = sr.hilbert_series_monomial(ideal)
        assert series.taylor(12) == hilbert_function_truncated(ideal, 12)


def test_hilbert_series_monomial_non_squarefree_matches_truncated_counts():
    rng = random.Random(67)
    variables = [il.Variable(1, i) for i in range(1, 9)]
    for _ in range(60):
        gens = [
            il.Monomial.of({v: rng.randint(1, 3) for v in rng.sample(variables, rng.randint(1, 4))})
            for _ in range(rng.randint(1, 7))
        ]
        ideal = il.MonomialIdeal.make(gens, ambient=variables)
        series = sr.hilbert_series_monomial(ideal)
        assert series.taylor(12) == hilbert_function_truncated(ideal, 12)


def test_hilbert_series_monomial_common_factor_matches_truncated_counts():
    # every generator shares x3_1*x3_2*x3_3, which the pivot alone peels off
    common = {il.Variable(3, i): 1 for i in range(1, 4)}
    base = il.ferrer_ideal(dg.validate([[2, 1], [1]]))
    ideal = il.MonomialIdeal.make(
        [il.Monomial.of({**dict(g.factors), **common}) for g in base.generators]
    )
    series = sr.hilbert_series_monomial(ideal)
    assert series.taylor(12) == hilbert_function_truncated(ideal, 12)


def test_splitting_peels_a_common_factor_of_degree_d_as_one_minus_t_to_the_d():
    # K(c J) = (1 - t^3) + t^3 K(J) for the squarefree factor c of degree 3
    gens = frozenset({0b0011, 0b0110, 0b1100})
    c = 0b111 << 4
    with_c = P(sr._numerator_splitting(frozenset(g | c for g in gens)))
    assert with_c == P([1, 0, 0, -1]) + P(sr._numerator_splitting(gens)).shift(3)


def test_hilbert_series_monomial_x_squared_xy():
    x, y = il.Variable(1, 1), il.Variable(1, 2)
    ideal = il.MonomialIdeal.make([il.Monomial.of({x: 2}), il.Monomial.of({x: 1, y: 1})])
    series = sr.hilbert_series_monomial(ideal)
    assert series.taylor(12) == hilbert_function_truncated(ideal, 12)
    assert series == sr.RationalSeries(P([1, 1, -1]), 1)


def test_hilbert_series_monomial_high_power_chain():
    x, y = il.Variable(1, 1), il.Variable(1, 2)
    ideal = il.MonomialIdeal.make(
        [il.Monomial.of({x: 900}), il.Monomial.of({x: 899, y: 1})]
    )
    series = sr.hilbert_series_monomial(ideal)
    assert series.taylor(12) == hilbert_function_truncated(ideal, 12)
    # Inclusion-exclusion: 1 - t^900 - t^900 + t^901, the last for the lcm x^900*y.
    assert series == sr.RationalSeries(P([1] + [0] * 899 + [-2, 1]), 2)


def test_hilbert_series_monomial_long_squarefree_chain():
    xs = {il.Variable(1, i): 1 for i in range(1, 901)}
    y, z = il.Variable(2, 1), il.Variable(2, 2)
    ideal = il.MonomialIdeal.make(
        [
            il.Monomial.of({**xs, y: 1}),
            il.Monomial.of({**xs, z: 1}),
            il.Monomial.of({y: 1, z: 1}),
        ]
    )
    series = sr.hilbert_series_monomial(ideal)
    # Inclusion-exclusion over the three generators, whose pairwise and
    # triple lcms all equal x1...x900*y*z: 1 - t^2 - 2t^901 + (3 - 1)t^902.
    expected = P([1, 0, -1] + [0] * 898 + [-2, 2])
    assert series == sr.RationalSeries(expected, 902)


def test_hilbert_series_monomial_20x20_grid():
    part = dg.validate([20] * 20)
    profile = dg.diagonal_profile(part)
    ideal = il.ferrer_ideal(part)
    formula = sr.hilbert_series_linear(
        profile.df, part.depth, profile.sigma, len(ideal.ambient) - profile.df
    )
    assert sr.hilbert_series_monomial(ideal) == formula


def test_hilbert_series_monomial_unit_ideal_is_zero():
    variables = [il.Variable(1, 1), il.Variable(1, 2)]
    ideal = il.MonomialIdeal.make([il.MONOMIAL_ONE], ambient=variables)
    series = sr.hilbert_series_monomial(ideal)
    assert series.numerator.is_zero and series.denom_exponent == 0


def test_hilbert_series_monomial_zero_ideal():
    variables = [il.Variable(1, i) for i in range(1, 5)]
    series = sr.hilbert_series_monomial(il.MonomialIdeal.make([], ambient=variables))
    assert series == sr.RationalSeries(P([1]), 4)


def test_extract_s_vector_square():
    series = sr.hilbert_series_linear(2, 2, (1,), 2)
    assert sr.extract_s_vector(series, 2, 2) == (1,)


def test_extract_s_vector_cm():
    series = sr.hilbert_series_linear(3, 3, (), 6)
    assert sr.extract_s_vector(series, 3, 3) == ()


def test_extract_s_vector_example_4322():
    part = dg.validate(EX4322)
    series = sr.hilbert_series_monomial(il.ferrer_ideal(part))
    assert sr.extract_s_vector(series, 3, 3) == (9, 2)


def test_extract_s_vector_rejects_wrong_degree():
    series = sr.hilbert_series_linear(2, 2, (1,), 2)
    with pytest.raises(NotPLinearShape):
        sr.extract_s_vector(series, 2, 3)


def test_extract_s_vector_rejects_negative_counts():
    series = sr.RationalSeries(P([1, 2, 0, -1]), 4)
    with pytest.raises(NotPLinearShape):
        sr.extract_s_vector(series, 2, 2)


def test_extract_s_vector_roundtrip_random():
    rng = random.Random(59)
    done = 0
    while done < 100:
        c = rng.randint(1, 5)
        p = rng.randint(1, 4)
        length = rng.randint(0, 6)
        cap = math.comb(c + p - 1, p - 1) - 1
        if length and cap == 0:
            continue
        sigma = []
        for i in range(length):
            top = cap if i == 0 else 20
            sigma.append(rng.randint(0, top))
        if length:
            sigma[-1] = max(sigma[-1], 1)
        sigma = tuple(sigma)
        d = length + rng.randint(0, 3)
        series = sr.hilbert_series_linear(c, p, sigma, d)
        assert sr.extract_s_vector(series, c, p) == sigma
        done += 1


def test_dual_series_cm_pair():
    primal, dual = sr.dual_series(3, 2, (), 7)
    assert primal == sr.RationalSeries(sr.h_poly(3, 2), 4)
    assert dual == sr.RationalSeries(sr.h_poly(2, 3), 5)


def test_dual_series_square_example():
    primal, dual = sr.dual_series(2, 2, (1,), 4)
    assert dual.numerator == P([1, 2, 1]) and dual.denom_exponent == 2
    from pferrer.ideal import alexander_dual, ferrer_ideal

    oracle = sr.hilbert_series_monomial(alexander_dual(ferrer_ideal(dg.validate([2, 2]))))
    assert dual == oracle


def test_dual_series_betti_polynomial_relation():
    rng = random.Random(61)
    for _ in range(40):
        c = rng.randint(1, 4)
        p = rng.randint(1, 4)
        length = rng.randint(0, 4)
        sigma = tuple(rng.randint(0, 6) for _ in range(length))
        n = c + length + rng.randint(max(p - c, 0), 4)
        assert sr.betti_polynomial_relation_holds(c, p, sigma, n)


def test_h_vector_examples():
    assert sr.h_vector(sr.RationalSeries(P([1, 2]), 3)) == (1, 2)
    assert sr.h_vector(sr.RationalSeries(P([1, 2, 3, -6]), 7)) == (1, 3, 6)
