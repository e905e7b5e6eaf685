"""Every name a module exports in `__all__` resolves, so `import *` works."""

import importlib
import pkgutil

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
