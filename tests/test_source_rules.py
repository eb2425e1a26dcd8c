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


def package_imports(tree):
    """Names of the lstrader modules a syntax tree imports anywhere: at
    module level, inside a function or under ``if TYPE_CHECKING``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] for p in parts if p[0] == "lstrader" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            if node.level == 0:
                if module[:1] != ["lstrader"]:
                    continue
                module = module[1:]
            found.update(module[:1] or [alias.name for alias in node.names])
    return found


def import_graph():
    """Each source module -> the other source modules it imports."""
    modules = {path.stem for path in SOURCES}
    return {
        path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8"))) & modules - {path.stem}
        for path in SOURCES
    }


def find_cycle(graph):
    """One cycle of a module -> imported modules graph, its first module
    repeated at the end; None when there is none."""
    done = set()

    def visit(module, path):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        for target in sorted(graph[module]):
            cycle = visit(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return None

    return next(filter(None, (visit(module, []) for module in sorted(graph))), None)


def test_no_import_cycle():
    """Layers import one way (evaluator -> trader -> market_data, and so on),
    whether the import runs at load time, in a function or for type checking."""
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_import_graph_sees_every_import_form():
    graph = import_graph()
    assert graph["trader"] == {"market_data"}
    assert {"evaluator", "market_data"} <= graph["cli"]  # from . import x; from .x import y
    assert "trader" not in graph["cli"]  # report reaches the trader through the evaluator
    tree = ast.parse("import lstrader.trader\nif TYPE_CHECKING:\n    from lstrader import evaluator\n"
                     "def f():\n    from .regression import x\n")
    assert package_imports(tree) == {"trader", "evaluator", "regression"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_trader_writes_no_file():
    """The trader only trades; the evaluator writes the bundle, trades.csv
    included. So trader.py imports neither csv nor open_for_write, in any form."""
    tree = ast.parse((pathlib.Path(lstrader.__file__).parent / "trader.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[0] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    assert not names & {"csv", "open_for_write"}, sorted(names & {"csv", "open_for_write"})


def test_sources_found():
    assert "market_data.py" in {p.name for p in SOURCES}
