"""The README's lists that name code: the Library layout table names every
module in ``src/pferrer``, and the ``FERRER_LIMITS`` sentence names every
``Limits`` field, no more and no fewer.

    PYTHONPATH=src python -m pytest -q tests/test_readme.py
"""

import re
from pathlib import Path

from pferrer.limits import Limits

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def test_library_layout_names_every_module():
    rows = re.findall(r"^\| `pferrer\.(\w+)`", section("Library layout"), re.MULTILINE)
    modules = [path.stem for path in (ROOT / "src" / "pferrer").glob("*.py")]
    assert sorted(rows) == sorted(name for name in modules if name != "__init__")


def test_limits_sentence_names_every_field():
    sentences = re.findall(r"The keys are (.*?);", README, re.DOTALL)
    assert len(sentences) == 1
    keys = re.findall(r"`(\w+)`", sentences[0])
    assert sorted(keys) == sorted(Limits._fields)
