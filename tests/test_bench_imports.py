"""The benchmark scripts run outside CI: a name they take from the package must exist."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_names(tree):
    """(line, module, name) for each isingsweep name the script imports or reads off a module.

    ``name`` is None for a plain ``import isingsweep.x``.  A module bound by
    an import (``import isingsweep.cli as cli``, ``from isingsweep import
    decoherence``) also contributes every ``alias.attr`` read in the script.
    """
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "isingsweep":
                    found.append((node.lineno, a.name, None))
                    if a.asname:
                        aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "isingsweep":
            for a in node.names:
                found.append((node.lineno, node.module, a.name))
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((node.lineno, aliases[node.value.id], node.attr))
    return found


def _exists(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:  # ``from isingsweep import cli`` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_script_package_names_exist(script):
    names = _package_names(ast.parse(script.read_text(), filename=str(script)))
    missing = [f"{script.name}:{line}: {module}.{name}" for line, module, name in names
               if not _exists(module, name)]
    assert not missing


def test_bench_scripts_import_the_package():
    # the two scripts that run the package and the one that rebuilds the references
    used = {s.name for s in BENCH.glob("*.py") if _package_names(ast.parse(s.read_text()))}
    assert {"sample.py", "make_reference.py"} <= used
