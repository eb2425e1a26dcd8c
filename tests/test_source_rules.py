"""Rules the library's source keeps, checked on its syntax tree."""

import ast
import pathlib

import pytest

import lstrader

SOURCES = sorted(pathlib.Path(lstrader.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants are real checks: python -O strips every assert."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on line(s) {lines}"


def test_sources_found():
    assert "market_data.py" in {p.name for p in SOURCES}
