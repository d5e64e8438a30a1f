"""The package's and each module's ``__all__`` name every export once, and
every name in them resolves, the oracle's lazily loaded ones included."""

import importlib
import pkgutil

import pytest

import covert_bosonic

MODULES = ["covert_bosonic"] + sorted(
    f"covert_bosonic.{m.name}" for m in pkgutil.iter_modules(covert_bosonic.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [n for n in exported if not hasattr(module, n)] == []

