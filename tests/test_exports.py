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
