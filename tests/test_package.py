"""The package's public names: every ``__all__`` entry and every name the
package re-exports must resolve, so a removed function cannot linger as a
stale string until ``from ampbound.x import *`` fails."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import ampbound
from conftest import run_python

MODULES = sorted(info.name for info in pkgutil.iter_modules(ampbound.__path__))
# what only the command line may import: its arguments, files, streams and
# JSON configs
CLI_ONLY = {"argparse", "json", "os", "sys"}
NON_CLI_FILES = sorted(path for path in Path(ampbound.__file__).parent.glob("*.py")
                       if path.stem != "cli")


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


def test_a_warning_from_the_package_is_an_error():
    # pyproject's filterwarnings makes any warning that an ampbound module
    # issues, numpy's included, fail the test that provoked it
    with pytest.raises(UserWarning, match="probe"):
        warnings.warn_explicit("probe", UserWarning, "analytic.py", 1, module="ampbound.analytic")


@pytest.mark.parametrize("path", NON_CLI_FILES, ids=lambda path: path.stem)
def test_only_cli_imports_the_command_line_modules(path):
    # the numerics take and return values: reading a config or a file is
    # cli's work, which is what keeps the configs' readers in one place
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    imported = {name.partition(".")[0] for name in names}
    assert imported & CLI_ONLY == set()


def test_only_map_loads_the_printer():
    # cli imports the printer inside map's text generator, so check,
    # verify and spectrum neither compile nor hold it
    code = """
import os, sys
import ampbound.cli as cli
cli.main(["check", "--nbar", "1", "--nq", "1", "--omega", "1", "--T", "1", "--out", os.devnull])
print("ampbound.printer" in sys.modules)
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
