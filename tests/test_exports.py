"""Every exported name resolves, so a removal cannot leave a stale export."""

import ast
import importlib
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
