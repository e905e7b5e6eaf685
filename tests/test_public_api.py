"""Every name a module exports in `__all__` resolves, so `import *` works;
only `fanet.cli` lays out CSV files; and the package defines one exception
class per outcome."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fanet

MODULES = sorted(m.name for m in pkgutil.iter_modules(fanet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fanet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"fanet.{name}.__all__ names missing attributes: {missing}"


def test_package_all_resolves():
    missing = [n for n in fanet.__all__ if not hasattr(fanet, n)]
    assert not missing, f"fanet.__all__ names missing attributes: {missing}"


def _imports(name: str) -> set:
    """The top-level packages that module fanet.<name> imports, at any depth of its code."""
    tree = ast.parse(Path(importlib.util.find_spec(f"fanet.{name}").origin).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_cli_imports_csv():
    """What a CLI artifact holds is decided in `fanet.cli`; the other modules return values."""
    assert [name for name in MODULES if "csv" in _imports(name)] == ["cli"]


def test_one_exception_class_per_outcome():
    """The package defines four exception classes: `ValidationError` and its
    subclasses `ShapeError` and `NonFiniteError` (exit 2 from the CLI), and
    `DivergenceError` (exit 1). No module adds another."""
    defined = []
    for name in MODULES:
        module = importlib.import_module(f"fanet.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        defined += [node.name for node in tree.body if isinstance(node, ast.ClassDef)
                    and issubclass(getattr(module, node.name), BaseException)]
    assert sorted(defined) == ["DivergenceError", "NonFiniteError", "ShapeError", "ValidationError"]
