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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_market_data_opens_files(path):
    """The builtin open() is called only in market_data's open_text and
    open_for_write, so every read goes through open_text and every fault in
    it names the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    openers = {"open_text", "open_for_write"} if path.name == "market_data.py" else set()
    inside = {id(node) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef) and func.name in openers
              for node in ast.walk(func)}
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "open" and id(node) not in inside]
    assert not lines, f"{path.name}: open() on line(s) {lines}"


def test_sources_found():
    assert "market_data.py" in {p.name for p in SOURCES}
