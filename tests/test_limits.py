"""Every ``Limits`` bound at its site: one past the limit raises the exact
error class and message, at the limit nothing is raised, and where the
bounded work can be replaced the check is shown to run before it.  The guard
below keeps the error classes and messages in the one table of
``pferrer.limits``.

    PYTHONPATH=src python -m pytest -q tests/test_limits.py
"""

import ast
from pathlib import Path

import pytest

from helpers import FIXTURES
from pferrer import cli
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import macaulay as mc
from pferrer import oracle as oc
from pferrer import series as sr
from pferrer.errors import SizeLimitExceeded, TooManyGenerators
from pferrer.limits import BOUNDS, Limits

SRC = Path(__file__).resolve().parent.parent / "src" / "pferrer"

# the ideal of [2, 1]: 4 variables, 3 generators
STAIRCASE = il.ferrer_ideal(dg.validate([2, 1]))


def verify(max_degree):
    args = cli.PARSER.parse_args(
        ["verify", "--max-degree", str(max_degree), str(FIXTURES / "staircase_22.json")]
    )
    return lambda limits: args.handler(args, limits)


# (site, call on a Limits, field, value the call checks, error, message,
#  the bounded work as (module, name) or None)
SITES = [
    ("validate-depth", lambda lim: dg.validate([[2, 1], [1]], lim),
     "max_depth", 3, SizeLimitExceeded, "depth 3 exceeds limit 2", (dg, "_build")),
    ("validate-boxes", lambda lim: dg.validate([3, 3], lim),
     "max_boxes", 6, SizeLimitExceeded, "6 boxes exceed limit 5", None),
    ("full_diagram-depth", lambda lim: dg.full_diagram(3, 2, lim),
     "max_depth", 3, SizeLimitExceeded, "depth 3 exceeds limit 2", (dg, "_full")),
    ("full_diagram-boxes", lambda lim: dg.full_diagram(2, 3, lim),
     "max_boxes", 6, SizeLimitExceeded, "6 boxes exceed limit 5", (dg, "_full")),
    ("realize_mvector-boxes", lambda lim: mc.realize_mvector((1, 2, 1), lim),
     "max_boxes", 4, SizeLimitExceeded, "4 boxes exceed limit 3",
     (mc, "multicomplex_from_mvector")),
    ("realize_mvector-hitting-set", lambda lim: mc.realize_mvector((1, 2, 1), lim),
     "hitting_set_max_variables", 5, SizeLimitExceeded,
     "5 variables exceed hitting-set limit 4", (mc, "diagram_from_multicomplex")),
    ("minimal_primes-hitting-set", lambda lim: il.minimal_primes(STAIRCASE, lim),
     "hitting_set_max_variables", 4, SizeLimitExceeded,
     "4 variables exceed hitting-set limit 3", (il, "_bit_indices")),
    ("alexander_dual-hitting-set", lambda lim: il.alexander_dual(STAIRCASE, lim),
     "hitting_set_max_variables", 4, SizeLimitExceeded,
     "4 variables exceed hitting-set limit 3", (il, "_bit_indices")),
    ("ferrer_dual-hitting-set", lambda lim: il.ferrer_dual(dg.validate([2, 1]), lim),
     "hitting_set_max_variables", 4, SizeLimitExceeded,
     "4 variables exceed hitting-set limit 3", (il, "_diagram_primes")),
    ("hilbert_series_monomial-generators",
     lambda lim: sr.hilbert_series_monomial(STAIRCASE, lim),
     "series_recursion_max_generators", 3, TooManyGenerators,
     "3 generators exceed limit 2", (sr, "_numerator_splitting")),
    ("graded_betti_brute-variables", lambda lim: oc.graded_betti_brute(STAIRCASE, lim),
     "oracle_max_variables", 4, SizeLimitExceeded,
     "4 variables exceed oracle limit 3", (oc, "_betti_of_masks")),
    ("graded_betti_brute-generators", lambda lim: oc.graded_betti_brute(STAIRCASE, lim),
     "oracle_max_generators", 3, SizeLimitExceeded,
     "3 generators exceed oracle limit 2", (oc, "_betti_of_masks")),
    ("hilbert_function_truncated-degree",
     lambda lim: oc.hilbert_function_truncated(STAIRCASE, 4, lim),
     "truncation_max_degree", 4, SizeLimitExceeded,
     "degree 4 exceeds truncation limit 3", None),
    ("verify-max-degree", verify(4),
     "truncation_max_degree", 4, SizeLimitExceeded,
     "degree 4 exceeds truncation limit 3", (cli, "_load_diagram")),
]


@pytest.mark.parametrize(
    "call, field, value, error, message, work",
    [pytest.param(*site[1:], id=site[0]) for site in SITES],
)
def test_each_bound_at_its_site(monkeypatch, capsys, call, field, value, error, message, work):
    call(Limits(**{field: value}))  # at the limit: nothing raised
    if work is not None:

        def unreachable(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran before {field} was checked")

        monkeypatch.setattr(*work, unreachable)
    with pytest.raises(error) as caught:
        call(Limits(**{field: value - 1}))
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_the_table_has_one_row_per_limit():
    assert set(BOUNDS) == set(Limits._fields)


def _limit_error_calls(tree):
    """(enclosing function name, error name) of every call of a limit error."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("SizeLimitExceeded", "TooManyGenerators"):
                found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_limit_errors_are_raised_only_through_the_table():
    # besides limits.py: the exact-rank constant, which is not a Limits key,
    # and the CLI's mapping of a RecursionError
    allowed = {
        ("oracle", "_morse_homology", "SizeLimitExceeded"),
        ("cli", "_dispatch", "SizeLimitExceeded"),
    }
    inline = {
        (path.stem, function, name)
        for path in SRC.glob("*.py")
        if path.stem != "limits"
        for function, name in _limit_error_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert inline == allowed
