"""Every package name the benchmark reads exists where it reads it.

The tracer in ``perfbench/tracing.py`` replaces ``owner.attribute`` for each
entry of its ``TARGETS``, and ``perfbench/workloads.py`` calls the package
through its imports and module attributes (``smp.two_point_table``); a
rename or deletion in the package would otherwise surface only when the
benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PERFBENCH / "tracing.py")
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("owner, attribute", [target[:2] for target in tracing.TARGETS],
                         ids=[target[2] for target in tracing.TARGETS])
def test_target_is_defined_on_its_owner(owner, attribute):
    assert attribute in vars(owner), f"{owner.__name__} has no {attribute!r}"


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def workload_names() -> list:
    """(module, name) for each package name ``perfbench/workloads.py`` reads.

    These are the names its ``from anhcrystal... import`` statements bind,
    and the attributes it reads off the package modules it imports.
    """
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    modules, names = {}, set()  # modules by their local names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("anhcrystal"):
            for alias in node.names:
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names)


def test_workloads_read_the_package():
    # the scan itself: the modules the workloads call through, and names they read
    modules = {module for module, _ in workload_names()}
    assert {"anhcrystal.sampler", "anhcrystal.cluster", "anhcrystal.oracle"} <= modules
    assert ("anhcrystal.cluster", "GL_NODES") in workload_names()
    assert ("anhcrystal.sampler", "boundary_mean_shift") in workload_names()


@pytest.mark.parametrize("module, name", workload_names(),
                         ids=[f"{m}.{n}" for m, n in workload_names()])
def test_workload_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module} has no {name!r}"
