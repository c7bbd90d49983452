"""Every Python file in the checkout parses at the oldest version that
pyproject.toml declares, so syntax newer than that (such as ``except*``)
fails on any interpreter, not only on the oldest one CI runs. The files are
read, not changed."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
_FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', _PYPROJECT).groups()))
_SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                  for path in (ROOT / top).rglob("*.py"))


def test_floor_is_python_3_10():
    assert _FLOOR == (3, 10)


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_FLOOR)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_FLOOR)
