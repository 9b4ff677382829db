"""Every exported name resolves, so a removal cannot leave a stale export, and
the package imports nothing outside the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import rexlab

PACKAGE = Path(rexlab.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rexlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"rexlab.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"rexlab.{module}")
        assert hasattr(source, name), f"rexlab.{module} has no {name}"
        assert getattr(rexlab, name) is getattr(source, name)


def test_error_root_is_shared():
    assert rexlab.RexlabError is rexlab.rex.RexlabError is rexlab.errors.RexlabError
    assert issubclass(rexlab.BudgetExceededError, rexlab.RexlabError)


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_imports_only_the_stdlib(name):
    """``dependencies = []`` holds: every import names a standard-library
    module or the package itself."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("rexlab" if node.level else node.module)
    foreign = [m for m in imported
               if m.partition(".")[0] not in sys.stdlib_module_names | {"rexlab"}]
    assert not foreign, f"rexlab.{name} imports outside the standard library: {foreign}"


# The imports of one module's private names by another, each a known tie
# between two modules' internals.
PRIVATE_IMPORTS = {
    ("automata", "rex", "_position_masks"),
    ("unambiguous", "rex", "_position_masks"),
    ("analysis", "automata", "_derived_alphabet"),
    ("analysis", "witnesses", "_bundle_and_alphabet"),
    ("cli", "analysis", "_as_nfa"),
    ("cli", "automata", "_dfa_pair"),
}


def test_cross_module_private_imports_are_known():
    found = set()
    for name in ["__init__", *MODULES]:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.partition(".")[0] == "rexlab"):
                source = (node.module or "").removeprefix("rexlab").lstrip(".")
                found |= {(name, source, alias.name)
                          for alias in node.names if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
