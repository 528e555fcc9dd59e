"""``cli._dumps``, the writer of every JSON document the CLI prints, returns
exactly what ``json.dumps(value, indent=2)`` returns."""

import json

import pytest

from pferrer import cli
from pferrer import invariants as iv

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Any code point, lone surrogates included, plus strings that json escapes.
TEXT = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é€", "\U0001f600", "\ud800", "\udfff\ud83d"]
)
SCALARS = st.one_of(TEXT, st.integers(-(2**70), 2**70), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=1000)
@given(VALUES)
def test_dumps_equals_json_dumps_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@st.composite
def witness_lists(draw):
    """A ``cli._Witnesses`` on random boxes and names, and its list of dicts."""
    name = draw(st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 4)), TEXT, min_size=1))
    box = st.sampled_from(sorted(name))
    rows = draw(
        st.lists(st.builds(iv.AraWitness, box, box, st.integers(0, 2**40), box), max_size=6)
    )
    dicts = [
        {"pair": [name[a], name[b]], "witness_class": k, "witness_monomial": name[w]}
        for a, b, k, w in rows
    ]
    return cli._Witnesses(tuple(rows), name), dicts


@settings(max_examples=200, derandomize=True, database=None, deadline=1000)
@given(witness_lists(), st.lists(st.sampled_from(["list", "dict"]), max_size=4))
@example((cli._Witnesses((), {}), []), ["dict"])
def test_witness_writer_equals_json_dumps_of_the_dicts(witnesses, nesting):
    value, expected = witnesses
    for container in nesting:  # each level indents the list two more spaces
        if container == "list":
            value, expected = [value], [expected]
        else:
            value, expected = {"witnesses": value}, {"witnesses": expected}
    assert cli._dumps(value) == json.dumps(expected, indent=2)


def test_tuple_prints_as_a_list():
    value = {"pair": ("a", (1, ())), "empty": ()}
    assert cli._dumps(value) == json.dumps(value, indent=2)
    assert cli._dumps(value) == cli._dumps({"pair": ["a", [1, []]], "empty": []})


def test_float_goes_through_json_dumps():
    value = [0.1, {"x": -1e300, "y": float("inf")}, 2.0]
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_set_raises_type_error_as_json_dumps_does():
    with pytest.raises(TypeError):
        json.dumps({"s": {1, 2}}, indent=2)
    with pytest.raises(TypeError):
        cli._dumps({"s": {1, 2}})
