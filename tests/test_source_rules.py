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


# the standard-library modules whose import a gk command would pay at
# start-up: dataclasses and inspect take about 10 ms, and
# importlib.resources brings pathlib, typing, zipfile and tempfile
_SLOW_IMPORTS = ("dataclasses", "importlib.resources", "inspect", "pathlib", "typing")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_slow_standard_library_import(path):
    """gkod's value classes derive from arith.Record and its data tables
    are read from the package directory, so no module needs these; the
    fresh-process tests cannot see all of them, as an interpreter's site
    may load them first."""
    tree = ast.parse(path.read_text(), filename=str(path))
    slow = [m for m in _imported_modules(ast.walk(tree))
            if any(m == s or m.startswith(s + ".") for s in _SLOW_IMPORTS)]
    assert not slow, f"{path.name} imports {slow}"


def test_one_place_skips_the_constructor_checks():
    """Only arith.trusted builds an instance past its class's checks (by
    object.__new__ and object.__setattr__), so every other construction
    in src/ goes through them.  The one other site that reaches
    object.__setattr__ is arith.Record, whose generated __init__ sets the
    fields and then runs the class's __post_init__."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if any(isinstance(node, ast.Attribute)
                   and node.attr in ("__new__", "__setattr__", "__dict__")
                   for node in ast.walk(top)):
                sites.add((path.name, getattr(top, "name", top.lineno)))
    assert sites == {("arith.py", "Record"), ("arith.py", "trusted")}, sites

    from gkod.arith import Record, trusted

    class Checked(Record):
        x: int

        def __post_init__(self):
            raise ValueError("checked")

    with pytest.raises(ValueError, match="checked"):
        Checked(1)
    assert trusted(Checked, x=1).x == 1


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


def _gkod_errors():
    """Each exception class that a gkod module defines, by name."""
    errors = {}
    for path in sorted(SRC.glob("*.py")):
        name = "gkod" if path.stem == "__init__" else f"gkod.{path.stem}"
        module = importlib.import_module(name)
        errors.update((cls.__name__, cls) for cls in vars(module).values()
                      if isinstance(cls, type) and issubclass(cls, BaseException)
                      and cls.__module__ == name)
    return errors


def test_every_error_class_picks_a_side():
    """Each exception class that gkod defines either derives from
    catalog.ParameterError, a request outside gkod's coverage that gk
    reports as exit 1, or is one of the named invariant errors, which must
    not derive from it."""
    from gkod.catalog import ParameterError

    errors = _gkod_errors()
    assert _INVARIANT_ERRORS <= set(errors)
    wrong = sorted(name for name, cls in errors.items()
                   if issubclass(cls, ParameterError) == (name in _INVARIANT_ERRORS))
    assert not wrong, f"error classes on the wrong side of ParameterError: {wrong}"


def _caught_names(tree):
    """(line, name) for each class named by an except clause or by a
    suppress(...) call under tree, read as a bare or dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id",
              getattr(node.func, "attr", None)) == "suppress"):
            caught = node.args
        else:
            continue
        yield from ((node.lineno, getattr(c, "id", getattr(c, "attr", None)))
                    for c in caught)


def test_coverage_gaps_are_caught_at_the_root():
    """Code that handles a request outside gkod's coverage catches
    catalog.ParameterError itself, never one of its subclasses, so a
    coverage gap of another kind cannot slip past the handler."""
    from gkod.catalog import ParameterError

    narrow = {name for name, cls in _gkod_errors().items()
              if issubclass(cls, ParameterError) and cls is not ParameterError}
    found = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
             for line, name in _caught_names(ast.parse(path.read_text()))
             if name in narrow]
    assert not found, f"handlers of a ParameterError subclass: {found}"
