"""Rules on the library source itself."""

import ast
import importlib
from collections import Counter
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_oracle_imports_numpy(path):
    """Every gk command but `gk oracle` starts without numpy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy = [m for m in _imported_modules(ast.walk(tree))
             if m.split(".")[0] == "numpy"]
    assert path.name == "oracle.py" or not numpy, f"{path.name} imports {numpy}"


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


def test_no_private_import_across_src_modules():
    """A module of gkod imports only the public names of another: a
    private name may change with its own module alone."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, node.lineno, alias.name)
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "gkod")
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not found, f"private names imported across modules: {found}"


def _private_definitions(tree):
    """(name, node) for every module-level def, class or assignment whose
    name is private (one leading underscore, not a dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    """How often each name is loaded, read as an attribute or imported
    under tree."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.alias))
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def test_every_private_helper_has_a_caller_in_src():
    """A private helper that only its own definition, or only the tests,
    uses is dead code in the library."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [(fname, name) for fname, tree in trees.items()
            for name, node in _private_definitions(tree)
            if used[name] == _references(node)[name]]
    assert not dead, f"private names with no use in src/: {dead}"


def _assigned_value(tree, name):
    """The value node of the module-level assignment to name."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets))


def test_every_closed_form_is_dispatched():
    """spectrum_of reaches each closed form through the one table
    _CLOSED_FORMS, so a new mu_* routine is dispatched, and certified by
    the oracle, once it is listed there."""
    tree = ast.parse((SRC / "spectra.py").read_text())
    forms = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name.startswith("mu_")} - {"mu_alternating"}
    table = _assigned_value(tree, "_CLOSED_FORMS")
    dispatched = {v.id for v in table.values if isinstance(v, ast.Name)}
    assert forms and forms <= dispatched, forms - dispatched


def test_oracle_imports_no_closed_form():
    """The oracle's formula side is spectrum_of, never a mu_* by name."""
    tree = ast.parse((SRC / "oracle.py").read_text())
    named = [m for m in _imported_modules(ast.walk(tree))
             if m.rsplit(".", 1)[-1].startswith("mu_")]
    assert not named, f"oracle.py imports {named}"


# the errors that signal a broken invariant; gk lets them end in a traceback
_INVARIANT_ERRORS = {"CauchyConsistencyError", "FormViolationError", "ClosureError"}


def test_every_error_class_picks_a_side():
    """Each exception class that gkod defines either derives from
    catalog.ParameterError, a request outside gkod's coverage that gk
    reports as exit 1, or is one of the named invariant errors, which must
    not derive from it."""
    from gkod.catalog import ParameterError

    errors = {}
    for path in sorted(SRC.glob("*.py")):
        name = "gkod" if path.stem == "__init__" else f"gkod.{path.stem}"
        module = importlib.import_module(name)
        errors.update((cls.__name__, cls) for cls in vars(module).values()
                      if isinstance(cls, type) and issubclass(cls, BaseException)
                      and cls.__module__ == name)
    assert _INVARIANT_ERRORS <= set(errors)
    wrong = sorted(name for name, cls in errors.items()
                   if issubclass(cls, ParameterError) == (name in _INVARIANT_ERRORS))
    assert not wrong, f"error classes on the wrong side of ParameterError: {wrong}"
