"""Shared fixtures: the v <= 8 dedup catalog and the compiled kernels."""

import importlib.util
import shutil
import sysconfig
from pathlib import Path

import pytest
from setuptools import Distribution, Extension

from weightsys.catalog import generate_graphs

KERNELS_C = Path(__file__).parent.parent / "src" / "weightsys" / "_kernels.c"


@pytest.fixture(scope="session")
def catalog_v8():
    """One representative per class, loops allowed, v = 2..8 (95 graphs)."""
    return [g for v in (2, 4, 6, 8) for g in generate_graphs(v, dedup=True)]


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """_kernels.c built with setuptools into a temporary directory and
    loaded from there, whether or not an in-place build exists."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build _kernels.c")
    out = tmp_path_factory.mktemp("kernels")
    ext = Extension("weightsys._kernels", [str(KERNELS_C)])
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib = str(out)
    build.build_temp = str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(
        ext.name, build.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
