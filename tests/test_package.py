"""The package's public names: every ``__all__`` entry and every name the
package re-exports must resolve, so a removed function cannot linger as a
stale string until ``from ampbound.x import *`` fails."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ampbound

MODULES = sorted(info.name for info in pkgutil.iter_modules(ampbound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ampbound.{name}")
    public = module.__all__
    assert len(set(public)) == len(public)
    assert [attr for attr in public if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from ampbound.{name} import *", namespace)
    assert set(public) <= set(namespace)


def test_package_reexports_public_names():
    tree = ast.parse(Path(ampbound.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ampbound.{node.module}")
        for alias in node.names:
            assert getattr(ampbound, alias.name) is getattr(module, alias.name)
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
