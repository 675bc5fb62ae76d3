"""The package's layout: what each layer loads and which kernels it calls."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import weightsys
from weightsys import kernels


# The weightsys.* modules each import loads, the kernel backend aside.
# The routes stay independent: statesum loads neither ribbon nor coloring,
# and ribbon none of statesum, coloring and algebra.  coloring loads ribbon
# only to turn a spherical marking into a map (extract_map); catalog and
# cli bring in every layer.
LAYERS = ("poly", "algebra", "kernels", "graphs", "ribbon", "coloring",
          "statesum", "catalog")
LOADS = {
    "weightsys": set(),
    "weightsys.poly": {"poly"},
    "weightsys.algebra": {"algebra"},
    "weightsys.kernels": {"kernels"},
    "weightsys.graphs": {"graphs", "kernels"},
    "weightsys.ribbon": {"ribbon", "graphs", "kernels", "poly"},
    "weightsys.coloring": {"coloring", "ribbon", "graphs", "kernels", "poly"},
    "weightsys.statesum": {"statesum", "algebra", "graphs", "kernels"},
    "weightsys.catalog": set(LAYERS),
    "weightsys.cli": {*LAYERS, "cli"},
}


@pytest.mark.parametrize("module", LOADS)
def test_each_layer_loads_only_the_layers_it_uses(module):
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*sorted(n for n in sys.modules "
         "if n.startswith('weightsys.')))"],
        capture_output=True, text=True, check=True)
    expected = set(LOADS[module])
    if "kernels" in expected:
        expected.add({"compiled": "_kernels",
                      "pure": "_kernels_py"}[kernels.BACKEND])
    assert set(done.stdout.split()) == {f"weightsys.{m}" for m in expected}


def test_every_kernel_has_a_package_caller():
    # A kernel only the tests and the benchmark call is dead weight.
    exported = {name for name, value in vars(kernels).items()
                if callable(value) and not name.startswith("_")}
    assert exported == {"face_count", "marking_scan"}
    called = set()
    for path in Path(weightsys.__file__).parent.glob("*.py"):
        if path.name in ("kernels.py", "_kernels_py.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "kernels"):
                called.add(node.func.attr)
    assert exported <= called, exported - called


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a survey with jobs > 1 starts a pool, and importing
    # multiprocessing slows every process start.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, weightsys.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
