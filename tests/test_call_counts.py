"""How often each command derives a diagram fact, counted by perfbench's
``Tracer`` on ``fixtures/example_54432.json``: the diagonal profile once per
command, and the diagram ideal only where the command prints or checks it.

    PYTHONPATH=src python -m pytest -q tests/test_call_counts.py

It reads ``perfbench/`` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

from pferrer import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer  # noqa: E402
from worker import run_op  # noqa: E402

EXAMPLE = (ROOT / "fixtures" / "example_54432.json").read_text(encoding="utf-8")
IDEAL = ("ideal", "ferrer_ideal")
PROFILE = ("diagram", "diagonal_profile")
ORACLE = ("oracle", "graded_betti_brute")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["report", "--certificate", "-"], {IDEAL: 1, PROFILE: 1}),
        (["series", "-"], {IDEAL: 0, PROFILE: 1}),
        (["dual", "-"], {IDEAL: 0, PROFILE: 1}),
        (["verify", "-"], {PROFILE: 1, ORACLE: 2}),
    ],
)
def test_each_command_derives_the_profile_once(monkeypatch, argv, expected):
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # run_op replaces it
    with Tracer() as tracer:
        code, _, _ = run_op(cli.main, argv, EXAMPLE)
    assert code == 0
    assert {key: tracer.calls(*key) for key in expected} == expected
