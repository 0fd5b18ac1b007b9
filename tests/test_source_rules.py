"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gkod"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants are explicit raises: an assert vanishes under python -O."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    """A broken invariant raises a named error; an AssertionError in the
    library would be a self-check that belongs in the tests."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert not lines, f"{path.name}: raise AssertionError at line(s) {lines}"


def _imported_modules(nodes):
    """Absolute or relative module names that the import statements among
    nodes bring in; `from M import x` counts as both `M` and `M.x`, since
    x may be a submodule."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            sep = "" if base.endswith(".") else "."
            yield from (base + sep + alias.name for alias in node.names)


def _module_level(tree):
    """Every node that runs at import: all but the bodies of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_oracle_imports_numpy(path):
    """Every gk command but `gk oracle` starts without numpy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy = [m for m in _imported_modules(ast.walk(tree))
             if m.split(".")[0] == "numpy"]
    assert path.name == "oracle.py" or not numpy, f"{path.name} imports {numpy}"


def test_cli_imports_the_oracle_only_when_a_command_runs():
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    oracle = [m for m in _imported_modules(_module_level(tree))
              if m in (".oracle", "gkod.oracle")]
    assert not oracle, f"cli.py imports the oracle at module level: {oracle}"


def test_one_place_skips_the_constructor_checks():
    """Only arith.trusted builds an instance past its class's checks (by
    object.__new__ and object.__setattr__), so every other construction
    in src/ goes through them."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if any(isinstance(node, ast.Attribute)
                   and node.attr in ("__new__", "__setattr__", "__dict__")
                   for node in ast.walk(top)):
                sites.add((path.name, getattr(top, "name", top.lineno)))
    assert sites == {("arith.py", "trusted")}, sites
