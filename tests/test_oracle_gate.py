"""The oracle gate: sha256 digests of ``graded_betti_brute``'s tables and of
``hilbert_function_truncated``'s counts over a fixed, seeded set of ideals,
pinned so that a change to either oracle's algorithm or memos shows as a
changed digest.  The set is the acceptance corpus, every distinct diagram of
the benchmark's verify-corpus pool, and seeded non-squarefree ideals:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_oracle_gate.py

It reads ``perfbench/workloads.py`` and writes nothing there.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from helpers import acceptance_corpus
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import oracle as oc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

BETTI_SHA256 = "080b1bc085748031c2c8c7a384a040791d204953276fb0f2027b1b196ea16eb8"
TRUNCATED_SHA256 = "971d921d804b4bf617b9fd212206c4a4b9950d66c5d3f7698797279804efe9b4"


def _diagram_ideals():
    parts = acceptance_corpus()
    seen = set(parts)
    for _, stdin_text in workloads.all_pool_ops(workloads.VERIFY_CORPUS):
        part = dg.validate(json.loads(stdin_text))
        if part not in seen:
            seen.add(part)
            parts.append(part)
    return [il.ferrer_ideal(part) for part in parts]


def _non_squarefree_ideals(count=200):
    """Ideals on at most 5 variables with exponents at most 3, so at most 15
    polarized variables, within the default oracle limits; every fourth one
    repeats a generator's tail on the last variables under a new head."""
    rng = random.Random(24)
    variables = [il.Variable(1 + i % 2, 1 + i // 2) for i in range(5)]
    ideals = []
    for trial in range(count):
        ambient = variables[: rng.randint(1, 5)]
        gens = []
        for _ in range(rng.randint(1, 8)):
            chosen = rng.sample(ambient, rng.randint(1, len(ambient)))
            gens.append({v: rng.randint(1, 3) for v in chosen})
        if trial % 4 == 0 and len(ambient) > 1:
            head, tail = ambient[0], ambient[1:]
            shared = {v: e for v, e in gens[0].items() if v in tail}
            gens.append({**shared, head: rng.randint(1, 3)})
        ideals.append(il.MonomialIdeal.make([il.Monomial.of(g) for g in gens], ambient=ambient))
    return ideals


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.slow
def test_betti_tables_of_the_gate_set_keep_their_digest():
    ideals = _diagram_ideals() + _non_squarefree_ideals()
    tables = [oc.graded_betti_brute(ideal).entries for ideal in ideals]
    assert len(ideals) == 769
    assert _digest(tables) == BETTI_SHA256


@pytest.mark.slow
def test_truncated_counts_of_the_gate_set_keep_their_digest():
    counts = [oc.hilbert_function_truncated(ideal, 12) for ideal in _diagram_ideals()]
    counts += [
        oc.hilbert_function_truncated(ideal, top)
        for ideal in _non_squarefree_ideals()
        for top in (0, 1, 5, 12, 20)
    ]
    assert _digest(counts) == TRUNCATED_SHA256
