"""The package's layout: what each layer loads, which kernels it calls and
that each public name has a caller."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weightsys
from weightsys import kernels


# The weightsys.* modules each import loads, the kernel backend aside.
# The routes stay independent: no route loads another, and of the routes
# only ribbon, which calls the kernels, loads them; catalog and cli bring
# in every layer.
LAYERS = ("algebra", "kernels", "graphs", "ribbon", "coloring", "statesum",
          "catalog")
LOADS = {
    "weightsys": set(),
    "weightsys.algebra": {"algebra"},
    "weightsys.kernels": {"kernels"},
    "weightsys.graphs": {"graphs"},
    "weightsys.ribbon": {"ribbon", "graphs", "kernels"},
    "weightsys.coloring": {"coloring", "graphs"},
    "weightsys.statesum": {"statesum", "algebra", "graphs"},
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


ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "weightsys"


# Public names of dict and list methods.  Reading the text cannot tell a
# call of a method of one of these names from the dict and list calls
# around it, so no such method may be public.
CONTAINER_METHODS = {name for name in dir(dict) + dir(list)
                     if not name.startswith("_")}


def top_level_definitions(tree):
    """(name, node) for each name a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            names = []
        yield from ((n, node) for n in names)


def public_definitions(tree):
    """(name, node, method) for each public top-level name of a module and
    each public method of its top-level classes, method telling which;
    dunder methods are private here, as every name with a leading
    underscore is."""
    for name, node in top_level_definitions(tree):
        if not name.startswith("_"):
            yield name, node, False
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m, True) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def used_outside(name, node, path, texts):
    """Whether ``name``, defined by ``node`` in ``path``, appears as a
    word in ``texts`` outside its own definition."""
    word = re.compile(rf"\b{name}\b")
    lines = texts[path].splitlines()
    rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
    return any(word.search(rest if other == path else text)
               for other, text in texts.items())


def test_every_public_name_has_a_caller():
    # A public name only the tests use is surface to keep for nothing.  A
    # name counts as used when it appears as a word in the package (its
    # own definition aside), the README or the benchmark; a method shares
    # that with every other attribute of its name, so a method named like
    # a dict or list method never counts as used.
    texts = {path: path.read_text() for path in
             [*PACKAGE.glob("*.py"), ROOT / "README.md",
              *(ROOT / "perfbench").glob("*.py")]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, method in public_definitions(ast.parse(texts[path])):
            if (method and name in CONTAINER_METHODS) or not used_outside(
                    name, node, path, texts):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_every_private_name_has_a_user_in_the_package():
    # A private top-level name is the package's own, so only the package
    # counts as using it: a helper left behind when its caller is folded
    # away or deleted shows here, even if a test still calls it.  Dunder
    # names are read by Python and its tools, not by the package.
    texts = {path: path.read_text() for path in PACKAGE.glob("*.py")}
    unused = [f"{path.name}:{name}" for path in sorted(texts)
              for name, node in top_level_definitions(ast.parse(texts[path]))
              if name.startswith("_") and not name.endswith("__")
              and not used_outside(name, node, path, texts)]
    assert unused == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a survey with jobs > 1 starts a pool, and importing
    # multiprocessing slows every process start.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, weightsys.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_no_test_module_imports_another():
    # Shared test helpers come from oracles or conftest, so each test
    # module can be read, run and changed on its own.
    imports = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0].startswith("test_")]
    assert imports == []
