"""The export lists stay true to the code: every name in a module's
`__all__` exists, the type hints of every exported class and function
resolve, and every public name the package re-exports is in the `__all__`
of the module that defines it."""

import importlib
import inspect
import pkgutil
import sys
import types
import typing

import pytest

import mmwassoc

MODULES = [
    importlib.import_module(f"mmwassoc.{info.name}")
    for info in pkgutil.iter_modules(mmwassoc.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_type_hint_resolves(module):
    # the annotations are strings (`from __future__ import annotations`), so a
    # name used only in a hint and never imported fails only here
    for name in getattr(module, "__all__", []):
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            typing.get_type_hints(value)


def test_package_reexports_only_exported_names():
    reexported = {
        name: value
        for name, value in vars(mmwassoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert reexported
    for name, value in reexported.items():
        home = sys.modules[value.__module__]
        assert name in getattr(home, "__all__", ()), f"{name} is not in {home.__name__}.__all__"
