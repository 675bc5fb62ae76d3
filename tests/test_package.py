"""The package's public surface."""

import ast
import subprocess
import sys
from pathlib import Path

import weightsys
from weightsys import kernels


def test_public_names_resolve_once():
    names = weightsys.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(weightsys, n)] == []
    namespace = {}
    exec("from weightsys import *", namespace)
    assert set(names) <= set(namespace)


def test_public_surface_is_pinned():
    # Growing or shrinking the public surface means editing this list.
    assert weightsys.__all__ == [
        "GraphParseError", "IntPolynomial", "MetrizedLieAlgebra", "PlanarMap",
        "TrivalentGraph", "VerificationReport", "algebra_by_name",
        "change_basis", "check_graph", "coloring_sign",
        "enumerate_edge_3_colorings", "enumerate_four_colorings",
        "evaluate_weight", "extract_map", "face_orbits", "flip_vertex",
        "flip_vertices", "generate_graphs", "genus", "is_connected",
        "is_two_connected", "make_abelian", "make_gl", "make_sl2",
        "make_so3", "marking_profile", "parse_graph", "penrose_sum",
        "rotation_of_marking", "run_survey", "scale_metric",
        "serialize_graph", "tait_edge_coloring", "validate_algebra",
        "verify_tait_bijection", "w_sl2",
    ]


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
