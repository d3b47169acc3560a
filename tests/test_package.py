"""The package's public names: every ``__all__`` entry and every name the
package re-exports must resolve, so a removed function cannot linger as a
stale string until ``from ampbound.x import *`` fails."""

import ast
import gc
import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import ampbound
from ampbound import cli
from conftest import run_python

MODULES = sorted(info.name for info in pkgutil.iter_modules(ampbound.__path__))
# what only the command line may import: its arguments, files, streams and
# JSON configs, and the exit handler that freezes the heap
CLI_ONLY = {"argparse", "atexit", "gc", "json", "os", "sys"}
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
    # each name of the package's table resolves, on first use, to the very
    # object of the module that defines it, which lists it in its __all__
    assert ampbound._EXPORTS
    for name, module_name in ampbound._EXPORTS.items():
        module = importlib.import_module(f"ampbound.{module_name}")
        assert getattr(ampbound, name) is getattr(module, name)
        assert name in module.__all__, f"{module_name}.{name}"


def test_package_lists_the_names_of_its_table():
    assert ampbound.__all__ == list(ampbound._EXPORTS)
    assert sorted(ampbound._SUBMODULES) == MODULES
    assert set(ampbound.__all__) | {"__version__"} <= set(dir(ampbound))
    namespace = {}
    exec("from ampbound import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(ampbound, name) for name in ampbound.__all__}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ampbound.no_such_name
    assert not hasattr(ampbound, "stats")
    with pytest.raises(ImportError):
        exec("from ampbound import no_such_name", {})


def test_import_ampbound_loads_no_submodule_until_a_name_is_used():
    code = """
import sys
import ampbound

def loaded():
    return " ".join(sorted(m for m in sys.modules if m.startswith("ampbound.")))

print(loaded())
print(ampbound.dynamics.__name__, "|", loaded())
print(ampbound.verify_point.__module__, "|", loaded())
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "",
        "ampbound.dynamics | ampbound.dynamics",
        "ampbound.fock_oracle | ampbound.analytic ampbound.dynamics ampbound.fock_oracle "
        "ampbound.su11",
    ]


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


# each command's arguments, and the ampbound modules beyond ampbound,
# ampbound.analytic and ampbound.cli that it loads; PUMP is a pump config
COMMAND_MODULES = {
    "check": (["--nbar", "1", "--nq", "1", "--omega", "1", "--T", "1"], []),
    "map": (["--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--x-points", "3",
             "--y-min", "1", "--y-max", "2", "--y-points", "3"], ["printer"]),
    "verify": (["--point", "1,0.5"], ["fock_oracle", "su11"]),
    "spectrum": (["--pump", "PUMP", "--T", "1", "--k-min", "0.5", "--k-max", "2",
                  "--k-points", "3", "--tau-in", "-20", "--tau-fin", "-0.5"],
                 ["dynamics", "field_modes"]),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(pump_file, command):
    # cli imports each command's modules where the command first needs
    # them, so a cold command neither compiles nor holds the others
    argv, extra = COMMAND_MODULES[command]
    pump = pump_file({"kind": "de_sitter"})
    code = """
import os, sys
import ampbound.cli as cli
status = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(status, *sorted(m for m in sys.modules if m.partition(".")[0] == "ampbound"))
"""
    result = run_python("-c", code, command, *(pump if arg == "PUMP" else arg for arg in argv))
    assert result.returncode == 0, result.stderr
    modules = ["ampbound", "ampbound.analytic", "ampbound.cli"] + [f"ampbound.{m}" for m in extra]
    assert result.stdout.split() == ["0", *sorted(modules)]


# a child that reports, from an atexit handler registered before ampbound is
# imported, the count of objects frozen when the interpreter exits; handlers
# run last registered first, so this one runs after any that ampbound adds
REPORT_FREEZE_AT_EXIT = """
import atexit, gc, os
atexit.register(lambda: os.write(2, b"frozen %d" % gc.get_freeze_count()))
"""


def command_argv(pump_file, command):
    argv, _ = COMMAND_MODULES[command]
    pump = pump_file({"kind": "de_sitter"})
    return [command, *(pump if arg == "PUMP" else arg for arg in argv)]


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_a_command_leaves_its_heap_to_the_os_with_the_same_output(pump_file, tmp_path,
                                                                  capsysbinary, command):
    # cli registers gc.freeze with atexit, so the interpreter's final
    # collections skip every object alive at exit; the output to --out and
    # to stdout is the bytes of an in-process run
    argv = command_argv(pump_file, command)
    assert cli.main(argv + ["--out", str(tmp_path / "in_process.out")]) == 0
    assert cli.main(argv) == 0
    stdout = capsysbinary.readouterr().out
    code = REPORT_FREEZE_AT_EXIT + """
import sys
import ampbound.cli as cli
assert cli.main(sys.argv[2:] + ["--out", sys.argv[1]]) == 0
assert cli.main(sys.argv[2:]) == 0
"""
    result = run_python("-c", code, str(tmp_path / "child.out"), *argv, text=False)
    assert result.returncode == 0, result.stderr
    label, count = result.stderr.split()
    assert label == b"frozen" and int(count) > 0
    assert result.stdout == stdout
    assert (tmp_path / "child.out").read_bytes() == (tmp_path / "in_process.out").read_bytes()


def test_importing_the_package_freezes_nothing_at_exit():
    # the exit handler comes with cli alone; a library user's exit is as before
    code = REPORT_FREEZE_AT_EXIT + """
import ampbound
assert ampbound.bound_ratio and ampbound.verify_point and ampbound.dynamics
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "frozen 0"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_main_leaves_the_collector_as_it_was(pump_file, tmp_path, command, enabled):
    # an in-process caller of main, such as this suite, is never frozen
    argv = command_argv(pump_file, command)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
