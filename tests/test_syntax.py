"""Every module of the package parses as the oldest Python that
pyproject.toml declares (requires-python)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "wardalloc").glob("*.py"))


def declared_minimum():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_as_the_declared_minimum_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_minimum())


NEWER = {
    "except*": "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type alias": "type X = int\n",
}


@pytest.mark.parametrize("source", NEWER.values(), ids=NEWER.keys())
def test_newer_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_minimum())
