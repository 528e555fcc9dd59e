"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with -s to see them).

Criterion 1 is asserted exactly as stated and is expected to FAIL on the
component counts: the published decomposition of the (1,4,3,4,1) example
omits one minimal prime, {t1,s1,s2,s3}.  The companion test directly below
proves the omission (the eleven published components do not intersect to the
ideal, and the eleven-generator dual has h-vector (1,4,3,4,2,1), not
(1,4,3,4,1)).  Everything attainable in criterion 1 is also covered there.
"""

import json
import math
import random
import time
from functools import reduce

import pytest

from helpers import (
    HVECTOR_GENERATORS,
    HVECTOR_OMITTED_DUAL,
    HVECTOR_OMITTED_PRIME,
    HVECTOR_PUBLISHED_DUAL,
    HVECTOR_PUBLISHED_PRIMES,
    acceptance_corpus,
    betti_table_of,
)
from pferrer import cli
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import macaulay as mc
from pferrer import oracle as oc
from pferrer import series as sr


def criterion(number: int, ok: bool, detail: str):
    print(f"acceptance criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Criterion-3 fixture list (``helpers.acceptance_corpus``)."""
    return acceptance_corpus()


@pytest.fixture(scope="module")
def oracle_tables(corpus):
    start = time.perf_counter()
    tables = {part: oc.graded_betti_brute(il.ferrer_ideal(part)) for part in corpus}
    return tables, time.perf_counter() - start


def test_criterion_01_hvector_example(capsys):
    start = time.perf_counter()
    code = cli.main(["macaulay", "--h", "1,4,3,4,1"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    realization = mc.realize_mvector((1, 4, 3, 4, 1))
    primes = il.minimal_primes(realization.ideal)
    with capsys.disabled():
        ok = (
            code == 0
            and doc["generators"] == HVECTOR_GENERATORS
            and doc["dual_h_vector"] == [1, 4, 3, 4, 1]
            and elapsed < 1.0
            and primes == frozenset(HVECTOR_PUBLISHED_PRIMES)
            and doc["dual_generators"] == HVECTOR_PUBLISHED_DUAL
        )
        criterion(
            1,
            ok,
            "13 generators, 11 minimal primes, 11 dual generators, "
            f"dual h-vector (1,4,3,4,1), <1s (computed {len(primes)} primes, "
            f"{len(doc['dual_generators'])} dual generators: the published list "
            "omits the component {t1,s1,s2,s3})",
        )


def test_criterion_01_attainable_content(capsys):
    # The mathematically forced outcome: the published components all appear,
    # exactly one further component closes the decomposition, and only the
    # completed decomposition reproduces the stated dual h-vector.
    start = time.perf_counter()
    realization = mc.realize_mvector((1, 4, 3, 4, 1))
    elapsed = time.perf_counter() - start
    assert [str(g) for g in realization.ideal.generators] == HVECTOR_GENERATORS
    assert realization.dual_h_vector == (1, 4, 3, 4, 1)
    assert realization.verified
    assert elapsed < 1.0

    primes = il.minimal_primes(realization.ideal)
    assert primes == frozenset(HVECTOR_PUBLISHED_PRIMES) | {HVECTOR_OMITTED_PRIME}
    assert [str(g) for g in realization.dual.generators] == sorted(
        HVECTOR_PUBLISHED_DUAL + [HVECTOR_OMITTED_DUAL],
        key=lambda s: il.monomial_key(_parse(s)),
    )

    published = reduce(
        oc.intersect_monomial,
        (_linear(prime) for prime in HVECTOR_PUBLISHED_PRIMES),
    )
    assert published.generators != realization.ideal.generators
    completed = oc.intersect_monomial(published, _linear(HVECTOR_OMITTED_PRIME))
    assert completed.generators == realization.ideal.generators

    published_dual = il.MonomialIdeal.make(
        [il.Monomial.of({v: 1 for v in prime}) for prime in HVECTOR_PUBLISHED_PRIMES],
        ambient=realization.ideal.ambient,
    )
    assert sr.h_vector(sr.hilbert_series_monomial(published_dual)) == (1, 4, 3, 4, 2, 1)
    with capsys.disabled():
        print(
            "acceptance criterion  1*: PASS - published components plus "
            "{t1,s1,s2,s3} give the unique decomposition with dual h-vector "
            "(1,4,3,4,1)"
        )


def _parse(text: str) -> il.Monomial:
    exponents = {}
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        group, index = name[1:].split("_")
        exponents[il.Variable(int(group), int(index))] = int(power) if power else 1
    return il.Monomial.of(exponents)


def _linear(variables) -> il.MonomialIdeal:
    return il.MonomialIdeal.make([il.Monomial.of({v: 1}) for v in variables])


def test_criterion_02_nested_decomposition(capsys):
    a, b, c, d, e, f = (il.Variable(1, i) for i in range(1, 7))
    p2 = oc.intersect_monomial(_linear((c, d)), _linear((e,)))
    p3 = reduce(oc.intersect_monomial, [_linear((c, d)), _linear((c, e)), _linear((e, f))])
    with_a = il.MonomialIdeal.make([il.Monomial.of({a: 1})] + list(p2.generators))
    ideal = reduce(oc.intersect_monomial, [_linear((a, b)), with_a, p3])
    expected = {
        frozenset({a, b}),
        frozenset({a, e}),
        frozenset({c, d}),
        frozenset({c, e}),
        frozenset({e, f}),
    }
    with capsys.disabled():
        criterion(
            2,
            il.minimal_primes(ideal) == expected,
            "(a,b) ∩ (a,P2) ∩ P3 has minimal primes {(a,b),(a,e),(c,d),(c,e),(e,f)}",
        )


def test_criterion_03_betti_formula_vs_oracle(corpus, oracle_tables, capsys):
    tables, elapsed = oracle_tables
    start = time.perf_counter()
    ok = True
    detail = f"{len(corpus)} fixtures"
    for part in corpus:
        if tables[part] != betti_table_of(dg.diagonal_profile(part)):
            ok = False
            detail = f"mismatch on {part}"
            break
    elapsed += time.perf_counter() - start
    if ok and elapsed >= 300:
        ok = False
        detail = f"runtime {elapsed:.1f}s exceeds 5 min"
    with capsys.disabled():
        criterion(
            3,
            ok,
            f"formula equals brute-force graded Betti on {detail}, "
            f"all entries in degree j+p-1 ({elapsed:.1f}s)",
        )


def test_criterion_04_height_and_projdim(corpus, oracle_tables, capsys):
    tables, _ = oracle_tables
    ok = True
    detail = f"{len(corpus)} fixtures"
    for part in corpus:
        profile = dg.diagonal_profile(part)
        primes = il.minimal_primes(il.ferrer_ideal(part))
        if min(len(p) for p in primes) != profile.df:
            ok = False
            detail = f"height mismatch on {part}"
            break
        if tables[part].projdim != profile.delta:
            ok = False
            detail = f"projdim mismatch on {part}"
            break
    with capsys.disabled():
        criterion(4, ok, f"min prime size = df and oracle projdim = delta on {detail}")


def test_regularity_matches_the_oracle(corpus, oracle_tables):
    # reg(S/I) = max(degree - j) over the nonzero entries of the Betti table
    tables, _ = oracle_tables
    for part in corpus:
        reg = max(degree - j for j, degree, _ in tables[part].entries)
        assert reg == iv.regularity(part)[1], part


def test_criterion_05_mapping_cone_recurrence(capsys):
    rng = random.Random(5)
    steps = 0
    ok = True
    while steps < 200 and ok:
        part = dg.PFerrerPartition.leaf(1)
        while dg.box_count(part) < 2:
            from helpers import random_partition

            part = random_partition(rng, rng.choice([2, 3]), max_children=3, max_leaf=4)
        while dg.box_count(part) > 1 and steps < 200:
            step = iv.mapping_cone_step(part)
            if not step.recurrence_holds:
                ok = False
                break
            part = step.phi_prime
            steps += 1
    with capsys.disabled():
        criterion(5, ok and steps == 200, f"recurrence held on {steps} removal steps")


def test_criterion_06_hilbert_identities(corpus, capsys):
    ok = all(sr.duality_identity_check(c, p) for c in range(1, 9) for p in range(1, 9))
    detail = "duality identity for c,p <= 8"
    if ok:
        for part in corpus:
            profile = dg.diagonal_profile(part)
            ideal = il.ferrer_ideal(part)
            formula = sr.hilbert_series_linear(
                profile.df, part.depth, profile.sigma, len(ideal.ambient) - profile.df
            )
            if sr.hilbert_series_monomial(ideal) != formula:
                ok, detail = False, f"series mismatch on {part}"
                break
            if oc.hilbert_function_truncated(ideal, 12) != formula.taylor(12):
                ok, detail = False, f"truncation mismatch on {part}"
                break
        else:
            detail = f"series identities on {len(corpus)} fixtures"
    if ok:
        lhs = sr.RationalSeries(sr.IntPolynomial.of([1, 2, 3, -6]), 7)
        rhs = sr.RationalSeries(sr.IntPolynomial.of([1, 3, 6]), 6)
        if lhs != rhs:
            ok, detail = False, "canonical-form equality failed"
    with capsys.disabled():
        criterion(
            6,
            ok,
            f"{detail}; truncations to degree 12; "
            "(1+2t+3t^2-6t^3)/(1-t)^7 = (1+3t+6t^2)/(1-t)^6",
        )


def test_dual_series_is_the_series_of_the_dual_ideal(corpus):
    """``dual`` prints ``dual_series``'s second item: it must be the Hilbert
    series of the Alexander dual, counted from the dual's own generators."""
    mismatched = []
    for part in corpus:
        profile = dg.diagonal_profile(part)
        ideal = il.ferrer_ideal(part)
        _, dual = sr.dual_series(profile.df, part.depth, profile.sigma, len(ideal.ambient))
        if sr.hilbert_series_monomial(il.alexander_dual(ideal)) != dual:
            mismatched.append(part)
    assert len(corpus) == 332 and not mismatched, mismatched[:3]


def test_ferrer_dual_matches_the_hitting_sets_on_the_corpus(corpus):
    """The closed-form primes of ``ferrer_dual`` are ``minimal_primes``'
    brute-force hitting sets, and the dual equals ``alexander_dual``'s."""
    mismatched = []
    for part in corpus:
        ideal = il.ferrer_ideal(part)
        dual = il.ferrer_dual(part)
        primes = {frozenset(g.support) for g in dual.generators}
        if primes != il.minimal_primes(ideal) or dual != il.alexander_dual(ideal):
            mismatched.append(part)
    assert len(corpus) == 332 and not mismatched, mismatched[:3]


def test_criterion_07_s_vector_roundtrip(corpus, capsys):
    rng = random.Random(7)
    ok = True
    detail = "100 random shapes"
    done = 0
    while done < 100:
        c = rng.randint(1, 5)
        p = rng.randint(1, 4)
        length = rng.randint(0, 6)
        cap = math.comb(c + p - 1, p - 1) - 1
        if length and cap == 0:
            continue
        sigma = [rng.randint(0, cap if i == 0 else 20) for i in range(length)]
        if length:
            sigma[-1] = max(sigma[-1], 1)
        sigma = tuple(sigma)
        series = sr.hilbert_series_linear(c, p, sigma, length + rng.randint(0, 3))
        if sr.extract_s_vector(series, c, p) != sigma:
            ok, detail = False, f"roundtrip failed for c={c}, p={p}, sigma={sigma}"
            break
        done += 1
    if ok:
        for part in corpus:
            profile = dg.diagonal_profile(part)
            ideal = il.ferrer_ideal(part)
            series = sr.hilbert_series_monomial(ideal)
            extracted = sr.extract_s_vector(series, profile.df, part.depth)
            if extracted != profile.sigma:
                ok, detail = False, f"fixture s-vector mismatch on {part}"
                break
        else:
            detail = f"100 random shapes and {len(corpus)} fixture diagrams"
    with capsys.disabled():
        criterion(7, ok, f"extract inverts the series builder on {detail}")


def test_criterion_08_ara_certificate(corpus, capsys):
    ok = True
    detail = f"{len(corpus)} fixtures"
    for part in corpus:
        cert = iv.ara_certificate(part)
        profile = dg.diagonal_profile(part)
        if len(cert.classes[0]) != 1 or cert.ara != profile.delta:
            ok, detail = False, f"certificate shape wrong on {part}"
            break
        pairs = sum(len(cls) * (len(cls) - 1) // 2 for cls in cert.classes)
        if len(cert.witnesses) != pairs:
            ok, detail = False, f"missing witness on {part}"
            break
        if iv.homological_summary(profile).ara != profile.delta:
            ok, detail = False, f"reported ara wrong on {part}"
            break
    with capsys.disabled():
        criterion(
            8, ok, f"divisor witness for every same-diagonal pair on {detail}"
        )


def test_criterion_09_pure_resolution_arithmetic(capsys):
    record = iv.pure_codim2_betti(2, 3, 1)
    ok = record is not None and (record.beta1, record.beta2) == (3, 2)
    if ok:
        scaled_type, scaled_betti = iv.scaled_resolution_type((0, 2, 3), (1, 3, 2), 5)
        ok = scaled_type == (0, 10, 15) and scaled_betti == (1, 3, 2)
    if ok:
        base = tuple(iv.betti_cm(3, 2, j) for j in range(4))
        scaled = iv.scaled_resolution_type((0, 3, 4, 5), base, 3)
        ok = scaled == ((0, 9, 12, 15), base)
    with capsys.disabled():
        criterion(
            9, ok, "(2,3,1) -> (3,2); scaling multiplies types, keeps Betti numbers"
        )


def test_criterion_10_out_of_scope_note(capsys):
    # the cited abstract results (cohomological dimension equality, generic
    # initial ideal realization) are not desk-reproducible; their consequences
    # are exercised by the property suites above
    with capsys.disabled():
        criterion(10, True, "abstract claims covered only via property suites")
