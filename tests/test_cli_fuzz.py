"""Property tests of the CLI's failure route: whatever the argv, the bytes on
stdin or the value of ``FERRER_LIMITS``, ``main`` returns a documented exit
code, prints one JSON object on stdout and nothing on stderr, and lets no
exception escape.  ``-h``/``--help`` print usage text and exit 0, so they
are left out; option prefixes are not expanded, so ``--h`` is drawn on every
subcommand."""

import contextlib
import io
import json
import os
import sys

import pytest

from helpers import FIXTURES
from pferrer import cli
from pferrer.limits import ENV_VAR, Limits

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}
FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

COMMANDS = ["report", "verify", "series", "dual", "macaulay", "pure", "bogus"]
FLAGS = [
    "--text", "--json", "--certificate", "--max-degree", "--seed", "--h",
    "--a1", "--a2", "--beta0", "--c", "--p", "--alpha", "--a", "--bogus",
]
VALUES = [
    "0", "1", "2", "3", "5", "-1", "-3", "x", "", "-", "1,4,3,4,1", "1,2,4", "1,-1",
    "-1,0", "0,1", "1,x", "1,99999999999", "--h=-1,0", "--max-degree=-2", "--seed=x",
    str(FIXTURES / "staircase_22.json"),
]


def run_main(argv, stdin: bytes = b""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_documented(argv, code, out, err):
    assert code in DOCUMENTED_EXIT_CODES, (argv, code)
    assert err == "", (argv, err)
    if code == 0 and argv[0] == "report" and "--text" in argv:
        assert out.startswith("diagram: ")
    else:
        assert isinstance(json.loads(out), dict), (argv, out)


json_ish = st.one_of(
    st.recursive(
        st.integers(-2, 5), lambda inner: st.lists(inner, max_size=4), max_leaves=12
    ).map(json.dumps),
    st.text(alphabet='[]{},:"0123456789-.e tx\né', max_size=30),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "1" + "]" * depth),
    # around the interpreter's 4,300-digit limit on int conversion
    st.integers(4290, 4310).map(lambda digits: "[" + "9" * digits + "]"),
)


@FUZZ
@given(st.one_of(json_ish.map(str.encode), st.binary(max_size=24)))
def test_report_on_any_stdin_ends_in_a_json_document(data):
    argv = ["report", "-"]
    assert_documented(argv, *run_main(argv, data))


@FUZZ
@given(
    st.sampled_from(COMMANDS),
    st.lists(st.one_of(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=6),
)
def test_any_argv_ends_in_a_json_document(command, tokens):
    argv = [command, *tokens]
    assert_documented(argv, *run_main(argv))


# JSON objects of limit names, known or not, whose values are numerals of
# either sign and any length, floats, booleans or nested lists
limit_objects = st.dictionaries(
    st.sampled_from([*Limits._fields, "nope", "max_Depth", ""]),
    st.one_of(
        st.integers(-3, 10**6).map(str),
        st.integers(4290, 4310).map(lambda digits: "9" * digits),
        st.floats().map(json.dumps),
        st.booleans().map(json.dumps),
        st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    ),
    max_size=3,
).map(lambda items: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items.items()) + "}")


def is_known_limits(raw: str) -> bool:
    """Whether ``raw`` leaves the defaults (empty) or is a JSON object of
    known limit names with non-negative int values."""
    if not raw:
        return True
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError):
        return False
    return isinstance(data, dict) and all(
        name in Limits._fields and type(value) is int and value >= 0
        for name, value in data.items()
    )


@FUZZ
@given(st.one_of(json_ish, limit_objects))
def test_any_limits_value_ends_in_a_json_document(raw):
    # set by hand: a function-scoped monkeypatch is not reset between examples
    argv = ["pure", "--c", "2", "--p", "2", "--alpha", "1"]  # reads no input
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = raw
    try:
        code, out, err = run_main(argv)
    finally:
        if saved is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = saved
    assert err == "", (raw, err)
    doc = json.loads(out)
    if is_known_limits(raw):
        assert code == 0 and "error" not in doc, (raw, out)
    else:
        assert code == 2 and doc["error"] == "BadLimits", (raw, out)
