import math
import random
from fractions import Fraction

import pytest

from helpers import EX4322, betti_table_of, random_partition, with_a_non_dividing_witness
from pferrer import cli
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import oracle as oc
from pferrer.errors import CertificateFailure
from pferrer.limits import DEFAULT_LIMITS


def test_betti_cm_small_values():
    assert iv.betti_cm(2, 2, 0) == 1
    assert iv.betti_cm(2, 2, 1) == 3
    assert iv.betti_cm(2, 2, 2) == 2
    assert iv.betti_cm(2, 2, 3) == 0
    # zero beyond j = c, also where the second binomial would be huge
    assert iv.betti_cm(3, 8000, 3) == math.comb(8001, 2)
    assert all(iv.betti_cm(3, 8000, j) == 0 for j in (4, 5, 8000))


def test_betti_cm_is_the_pure_resolution_of_type_0_3_4_5():
    # Herzog–Kühl: a pure resolution of type (0, d_1, ..., d_c) has
    # beta_i = prod over j != i of d_j / |d_j - d_i|, and beta_0 = 1
    degrees = (0, 3, 4, 5)
    expected = [1]
    for i in range(1, len(degrees)):
        others = [d for d in degrees[1:] if d != degrees[i]]
        beta = Fraction(math.prod(others), math.prod(abs(d - degrees[i]) for d in others))
        expected.append(beta)
    assert [iv.betti_cm(3, 3, j) for j in range(4)] == expected


def test_betti_cm_is_binomial_for_linear_ideals():
    for lam in range(1, 7):
        for j in range(lam + 2):
            assert iv.betti_cm(lam, 1, j) == math.comb(lam, j)


def test_betti_cm_matches_displayed_codim2_resolution():
    # S/(ab, ac, cd) has the pure resolution 0 -> S^2 -> S^3 -> S
    a, b, c, d = (il.Variable(1, i) for i in range(1, 5))
    M = il.Monomial.of
    ideal = il.MonomialIdeal.make([M({a: 1, b: 1}), M({a: 1, c: 1}), M({c: 1, d: 1})])
    brute = oc.graded_betti_brute(ideal)
    assert brute.totals() == (3, 2)
    assert brute.totals() == tuple(iv.betti_cm(2, 2, j) for j in (1, 2))


def test_betti_table_staircase():
    table = betti_table_of(dg.diagonal_profile(dg.validate([2, 1])))
    assert table.totals() == (3, 2) and table.projdim == 2


def test_betti_table_square():
    table = betti_table_of(dg.diagonal_profile(dg.validate([2, 2])))
    assert table.totals() == (4, 4, 1) and table.projdim == 3


def test_betti_table_example_4322():
    table = betti_table_of(dg.diagonal_profile(dg.validate(EX4322)))
    assert table.totals() == (21, 50, 45, 17, 2) and table.projdim == 5


def test_betti_table_first_entry_counts_boxes():
    rng = random.Random(67)
    for _ in range(30):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        assert betti_table_of(dg.diagonal_profile(part)).beta(1) == dg.box_count(part)


def test_betti_table_last_entry_positive():
    rng = random.Random(71)
    for _ in range(30):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        profile = dg.diagonal_profile(part)
        table = betti_table_of(profile)
        assert table.totals()[-1] >= 1
        assert table.projdim == profile.delta


def test_ambient_indexed_form_agrees():
    # the binomial sum over the diagonal counts, written against the ambient
    # variable count, gives the table read off the K-polynomial
    rng = random.Random(73)
    parts = [dg.validate(EX4322)] + [
        random_partition(rng, rng.choice([1, 2, 3])) for _ in range(25)
    ]
    for part in parts:
        profile = dg.diagonal_profile(part)
        table = betti_table_of(profile)
        for j in range(1, profile.delta + 1):
            assert table.beta(j) == iv.betti_ambient_indexed(profile, j)


def test_mapping_cone_square():
    step = iv.mapping_cone_step(dg.validate([2, 2]))
    assert step.phi_prime.to_tree() == [2, 1]
    assert step.delta == 3
    assert step.table.totals() == (4, 4, 1)
    assert step.table_prime.totals() == (3, 2)
    assert step.recurrence_holds


def test_mapping_cone_full_staircase():
    step = iv.mapping_cone_step(dg.full_diagram(2, 2))
    assert step.table.totals() == (3, 2)
    assert step.table_prime.totals() == (2, 1)
    assert step.recurrence_holds


def test_mapping_cone_koszul():
    step = iv.mapping_cone_step(dg.validate(2))
    assert step.phi_prime.to_tree() == 1
    assert step.recurrence_holds


def test_mapping_cone_random_chains():
    rng = random.Random(79)
    steps = 0
    while steps < 200:
        part = random_partition(rng, rng.choice([2, 3]), max_children=3, max_leaf=4)
        while dg.box_count(part) > 1:
            step = iv.mapping_cone_step(part)
            assert step.recurrence_holds
            part = step.phi_prime
            steps += 1


def test_betti_table_cm_case_is_pure_formula():
    # full diagrams have delta = c, so the deviation sum vanishes
    for p in (1, 2, 3):
        for c in (1, 2, 3):
            part = dg.full_diagram(p, c)
            table = betti_table_of(dg.diagonal_profile(part))
            assert table.totals() == tuple(iv.betti_cm(c, p, j) for j in range(1, c + 1))
            step = (
                iv.mapping_cone_step(part) if dg.box_count(part) > 1 else None
            )
            if step is not None:
                assert step.recurrence_holds


def test_betti_table_of_a_long_row_and_a_long_leaf_is_binomial():
    # one row of 1500 boxes and a bare leaf of 10000: I is a linear ideal in
    # delta variables (times one variable for the row), so beta_j = C(delta, j)
    row = betti_table_of(dg.diagonal_profile(dg.validate([1500]))).totals()
    assert row == tuple(math.comb(1500, j) for j in range(1, 1501))
    # 10,000 calls of math.comb take seconds: pin C(n, 1) = n and
    # C(n, j + 1) (j + 1) = C(n, j) (n - j), which fix every term, and spot-check
    leaf = betti_table_of(dg.diagonal_profile(dg.validate(10000))).totals()
    assert len(leaf) == 10000 and leaf[0] == 10000 and sum(leaf) == 2**10000 - 1
    assert all(b * (j + 1) == a * (10000 - j) for j, (a, b) in enumerate(zip(leaf, leaf[1:]), 1))
    assert all(leaf[j - 1] == math.comb(10000, j) for j in (2, 17, 4999, 5000, 9999, 10000))


def test_betti_table_is_graded_in_degree_j_plus_p_minus_1():
    table = betti_table_of(dg.diagonal_profile(dg.validate([2, 2])))
    assert table.entries == ((1, 2, 4), (2, 3, 4), (3, 4, 1))
    assert table.beta(0) == 0 and table.beta(4) == 0


def test_betti_table_json_shape():
    # the report's betti field holds the totals, keyed by j
    doc = cli._report_document(dg.validate([2, 2]), DEFAULT_LIMITS, certificate=False)
    assert doc["betti"] == {"1": 4, "2": 4, "3": 1}


def test_mapping_cone_colon_is_generated_by_delta_minus_one_variables():
    # removing (2, 2) from [2, 2]: I([2, 1]) : x2_2*x1_2 = (x2_1, x1_1)
    part = dg.validate([2, 2])
    step = iv.mapping_cone_step(part)
    colon = il.colon_by_monomial(il.ferrer_ideal(step.phi_prime), il.box_monomial(step.removed))
    assert step.removed == (2, 2) and step.delta == 3
    assert [str(g) for g in colon.generators] == ["x2_1", "x1_1"]


@pytest.mark.parametrize("wrong", ["one variable short", "a square for a variable"])
def test_mapping_cone_step_fails_on_a_wrong_colon(monkeypatch, wrong):
    part = dg.validate(EX4322)
    assert iv.mapping_cone_step(part).recurrence_holds
    colon = iv.colon_by_monomial

    def wrong_colon(ideal, m):
        gens = colon(ideal, m).generators
        if wrong == "one variable short":
            gens = gens[1:]
        else:
            gens = (il.Monomial.of({gens[0].support[0]: 2}),) + gens[1:]
        return il.MonomialIdeal(gens, ideal.ambient)

    monkeypatch.setattr(iv, "colon_by_monomial", wrong_colon)
    assert not iv.mapping_cone_step(part).recurrence_holds


def test_regularity():
    assert iv.regularity(dg.validate(3)) == (1, 0)
    assert iv.regularity(dg.validate([2, 1])) == (2, 1)
    assert iv.regularity(dg.validate(EX4322)) == (3, 2)


def test_homological_summary_leaf():
    summary = iv.homological_summary(dg.diagonal_profile(dg.validate(3)))
    assert summary == iv.HomologicalSummary(
        n=3, height=3, dim=0, depth=0, projdim=3, ara=3
    )


def test_homological_summary_staircase():
    summary = iv.homological_summary(dg.diagonal_profile(dg.validate([2, 1])))
    assert summary == iv.HomologicalSummary(
        n=4, height=2, dim=2, depth=2, projdim=2, ara=2
    )


def test_homological_summary_example_4322():
    summary = iv.homological_summary(dg.diagonal_profile(dg.validate(EX4322)))
    assert summary.n == 12 and summary.height == 3
    assert summary.depth == 7 and summary.projdim == summary.ara == 5


def test_ara_certificate_leaf_trivial():
    cert = iv.ara_certificate(dg.validate(4))
    assert [len(cls) for cls in cert.classes] == [1, 1, 1, 1]
    assert cert.witnesses == ()


def test_ara_certificate_square_pair():
    cert = iv.ara_certificate(dg.validate([2, 2]))
    (witness,) = [w for w in cert.witnesses if w.witness_class == 1]
    assert str(il.box_monomial(witness.witness)) == "x2_1*x1_1"
    assert {str(il.box_monomial(witness.first)), str(il.box_monomial(witness.second))} == {
        "x2_1*x1_2",
        "x2_2*x1_1",
    }


def test_ara_certificate_last_diagonal_pair_4322():
    cert = iv.ara_certificate(dg.validate(EX4322))
    monomial_2_4_1 = il.box_monomial((2, 4, 1))
    monomial_2_1_4 = il.box_monomial((2, 1, 4))
    (witness,) = [
        w
        for w in cert.witnesses
        if {il.box_monomial(w.first), il.box_monomial(w.second)}
        == {monomial_2_4_1, monomial_2_1_4}
    ]
    assert il.box_monomial(witness.witness) == il.box_monomial((2, 1, 1))
    assert witness.witness_class == 2


def test_ara_certificate_every_pair_has_witness():
    rng = random.Random(83)
    parts = [dg.validate(EX4322)] + [
        random_partition(rng, rng.choice([1, 2, 3])) for _ in range(15)
    ]
    for part in parts:
        cert = iv.ara_certificate(part)
        assert len(cert.classes[0]) == 1
        assert cert.ara == dg.diagonal_profile(part).delta
        expected_pairs = sum(len(cls) * (len(cls) - 1) // 2 for cls in cert.classes)
        assert len(cert.witnesses) == expected_pairs
        for w in cert.witnesses:
            first, second, witness = map(il.box_monomial, (w.first, w.second, w.witness))
            pair_diagonal = sum(v.index for v in first.support) - part.depth + 1
            assert witness.divides(first.lcm(second))
            assert 1 <= w.witness_class < pair_diagonal


def test_ara_certificate_rejects_a_witness_outside_the_diagram(monkeypatch):
    part = dg.validate([2, 2])
    monkeypatch.setattr(iv, "boxes", lambda p: tuple(b for b in dg.boxes(p) if b != (1, 1)))
    with pytest.raises(CertificateFailure, match="no earlier-class divisor"):
        iv.ara_certificate(part)


def test_ara_certificate_rejects_a_non_dividing_witness(monkeypatch):
    monkeypatch.setattr(iv, "_box_table", with_a_non_dividing_witness(iv._box_table))
    with pytest.raises(CertificateFailure, match=r"pair \(1, 3\), \(3, 1\)"):
        iv.ara_certificate(dg.validate([3, 3, 3]))


def test_ara_certificate_rejects_a_witness_lowered_on_the_wrong_side(monkeypatch):
    # classes in descending order put first[i] > second[i], so the walk raises
    # second instead of lowering it: for (2, 1), (1, 2) it builds (2, 2), a box
    # of the diagram that divides the pair's lcm but lies on the later diagonal 3
    part = dg.validate([3, 3, 3])
    assert iv._box_table(part)[(2, 2)][0] == 3
    monkeypatch.setattr(iv, "sorted", lambda xs: sorted(xs, reverse=True), raising=False)
    with pytest.raises(CertificateFailure, match=r"pair \(2, 1\), \(1, 2\)"):
        iv.ara_certificate(part)


def test_betti_bounds_cm_equality():
    part = dg.validate([2, 1])
    profile = dg.diagonal_profile(part)
    table = betti_table_of(profile)
    summary = iv.homological_summary(profile)
    assert iv.betti_bounds_check(table, summary.height, summary.n, summary.depth)
    assert all(
        table.beta(j) == iv.betti_cm(summary.height, 2, j)
        for j in range(1, table.projdim + 1)
    )


def test_betti_bounds_square():
    part = dg.validate([2, 2])
    profile = dg.diagonal_profile(part)
    table = betti_table_of(profile)
    summary = iv.homological_summary(profile)
    assert iv.betti_bounds_check(table, summary.height, summary.n, summary.depth)


def test_betti_bounds_random():
    rng = random.Random(89)
    for _ in range(25):
        part = random_partition(rng, rng.choice([1, 2, 3]))
        profile = dg.diagonal_profile(part)
        table = betti_table_of(profile)
        summary = iv.homological_summary(profile)
        assert iv.betti_bounds_check(table, summary.height, summary.n, summary.depth)


def test_scaled_resolution_identity():
    assert iv.scaled_resolution_type((0, 2, 3), (1, 3, 2), 1) == ((0, 2, 3), (1, 3, 2))


def test_scaled_resolution_scaling():
    assert iv.scaled_resolution_type((0, 2, 3), (1, 3, 2), 5) == ((0, 10, 15), (1, 3, 2))


def test_scaled_resolution_rejects_nonincreasing():
    with pytest.raises(ValueError):
        iv.scaled_resolution_type((0, 3, 3), (1, 3, 2), 2)


def test_pure_codim2_displayed_example():
    record = iv.pure_codim2_betti(2, 3, 1)
    assert (record.beta1, record.beta2, record.c, record.alpha) == (3, 2, 2, 1)


def test_pure_codim2_scaled():
    record = iv.pure_codim2_betti(10, 15, 1)
    assert (record.beta1, record.beta2, record.c, record.alpha) == (3, 2, 2, 5)


def test_pure_codim2_infeasible():
    assert iv.pure_codim2_betti(2, 5, 1) is None
