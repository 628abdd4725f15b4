"""The package has one export surface: what a module lists in
``__all__`` is importable from ``pdrwm`` itself."""

import importlib
import pkgutil

import pytest

import pdrwm

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdrwm.__path__) if m.name[0] != "_")


@pytest.mark.parametrize("module", MODULES)
def test_listed_names_are_package_attributes(module):
    listed = getattr(importlib.import_module(f"pdrwm.{module}"), "__all__", ())
    assert [name for name in listed if not hasattr(pdrwm, name)] == []
