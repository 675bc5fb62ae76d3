"""Shared fixtures: the v <= 8 dedup catalog, the compiled kernels, a
UBSan build of them, a build with a tally of 2 keys and one that exports
its block choice, each kernel backend in turn and counters of marking
scans and coloring enumerations."""

import importlib.util
import os
import re
import shutil
import sysconfig
from collections import Counter
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.errors import LinkError

from weightsys import _kernels_py, catalog, cli, coloring, kernels
from weightsys.catalog import generate_graphs

SRC = Path(__file__).parent.parent / "src"
KERNELS_C = SRC / "weightsys" / "_kernels.c"


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Interpreters the tests start import weightsys from this checkout,
    as pytest's own ``pythonpath`` setting makes the test process do."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def catalog_v8():
    """One representative per class, loops allowed, v = 2..8 (95 graphs)."""
    return [g for v in (2, 4, 6, 8) for g in generate_graphs(v, dedup=True)]


def build_kernels(out, flags=(), source=KERNELS_C):
    """Build source, _kernels.c unless given, with setuptools into the
    directory out, with the extra flags passed to both compiler and
    linker, and return the path of the module.  Warnings fail the build
    here; setup.py keeps the default flags for compilers that do not take
    these.  Skips when there is no C compiler."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build _kernels.c")
    ext = Extension("weightsys._kernels", [str(source)], extra_compile_args=[
        "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror", *flags],
        extra_link_args=list(flags))
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib = str(out)
    build.build_temp = str(out / "tmp")
    build.ensure_finalized()
    build.run()
    return build.get_ext_fullpath(ext.name)


def load_kernels(path):
    """The compiled kernels built at path, loaded whether or not an
    in-place build exists."""
    spec = importlib.util.spec_from_file_location("weightsys._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """_kernels.c built by build_kernels into a temporary directory and
    loaded from there."""
    return load_kernels(build_kernels(tmp_path_factory.mktemp("kernels")))


def edited_kernels(out, define, value):
    """_kernels.c with the value of one #define replaced, built into the
    directory out and loaded as compiled_kernels is."""
    text, count = re.subn(rf"^#define {define} \S+",
                          f"#define {define} {value}", KERNELS_C.read_text(),
                          flags=re.MULTILINE)
    assert count == 1
    source = out / "_kernels.c"
    source.write_text(text)
    return load_kernels(build_kernels(out, source=source))


@pytest.fixture(scope="session")
def small_tally_kernels(tmp_path_factory):
    """_kernels.c with TALLY_BITS 1 in place of 14.  Its tally has 4 slots
    and is flushed whenever it holds 2 keys, so most scans fill it
    mid-scan."""
    return edited_kernels(tmp_path_factory.mktemp("small_tally"),
                          "TALLY_BITS", 1)


@pytest.fixture(scope="session")
def block_kernels(tmp_path_factory):
    """_kernels.c with EXPORT_BLOCK 1, which adds choose_block(alpha, v),
    the block marking_scan walks, to the module."""
    return edited_kernels(tmp_path_factory.mktemp("block"), "EXPORT_BLOCK",
                          1)


@pytest.fixture(scope="session")
def sanitized_kernels(tmp_path_factory):
    """The path of _kernels.c built by build_kernels under UBSan, which
    aborts at the first undefined behaviour.  Skips when the toolchain
    cannot link the sanitizer."""
    try:
        return build_kernels(tmp_path_factory.mktemp("ubsan"), [
            "-fsanitize=undefined", "-fno-sanitize-recover=all"])
    except LinkError as exc:
        pytest.skip(f"the C toolchain cannot link UBSan: {exc}")


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """The pure kernels, then the compiled ones."""
    if request.param == "pure":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")


@pytest.fixture
def enumerations(monkeypatch):
    """Calls to the two coloring searches, the edge colorings' count and
    the face colorings' list, counted by function name in every module
    that binds them."""
    calls = Counter()

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for name in ("edge_3_coloring_counts", "enumerate_four_colorings"):
        counting = counted(name, getattr(coloring, name))
        for module in (coloring, catalog, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def marking_scans(monkeypatch):
    """The vertex count of every kernels.marking_scan call, in order."""
    calls = []
    scan = kernels.marking_scan

    def counting_scan(alpha, v):
        calls.append(v)
        return scan(alpha, v)

    monkeypatch.setattr(kernels, "marking_scan", counting_scan)
    return calls
