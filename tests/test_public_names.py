"""The package's and each module's ``__all__`` name every export once, and
every name in them resolves; each name has one home module, which defines
it, and the package serves that module's own object."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import covert_bosonic

SUBMODULES = sorted(
    f"covert_bosonic.{m.name}" for m in pkgutil.iter_modules(covert_bosonic.__path__)
)
MODULES = ["covert_bosonic"] + SUBMODULES
# The one re-export, kept while the benchmark builds channels through it.
REEXPORTS = {("covert_bosonic.fock_core", "ChannelParams")}


def _defined_names(module):
    """Names bound at the top level of ``module`` by a def, a class or an
    assignment; imports do not count."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_module_exports_only_what_it_defines(module_name):
    module = importlib.import_module(module_name)
    foreign = set(getattr(module, "__all__", [])) - _defined_names(module)
    assert sorted(foreign - {n for m, n in REEXPORTS if m == module_name}) == []


def test_package_serves_each_name_from_its_home():
    for module_name, names in covert_bosonic._EXPORTS.items():
        home = importlib.import_module(f"covert_bosonic.{module_name}")
        for name in names:
            assert name in home.__all__ and name in _defined_names(home), name
            assert getattr(covert_bosonic, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(covert_bosonic.__all__) <= set(dir(covert_bosonic))
