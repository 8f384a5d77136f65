"""Fixtures shared by the test modules."""

import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

import zappatic
from zappatic import linalg

# Every run draws the same examples, and no example fails on wall time
# when the machine is busy.
settings.register_profile("zappatic", derandomize=True, deadline=None)
settings.load_profile("zappatic")

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def cli_env():
    """Environment for ``python -m zappatic.cli`` subprocesses.

    The source root of the imported package goes first on PYTHONPATH, so a
    subprocess runs the same code as the tests, also from an uninstalled
    checkout where only pytest's ``pythonpath`` setting finds the package.
    """
    src = str(Path(zappatic.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture(scope="session")
def bareiss_c(tmp_path_factory):
    """The C kernel, freshly built from ``src/zappatic/_bareiss_c.c``.

    ``setup.py build_ext`` compiles it into a temporary directory, so the
    Extension is exactly the one an install builds, and the module is
    imported from there; an in-place build is neither used nor touched.
    Skips only when no C compiler is found.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc})")
    out = tmp_path_factory.mktemp("bareiss_c")
    env = {k: v for k, v in os.environ.items() if k != "ZAPPATIC_NO_EXT"}
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    built = [
        path for suffix in importlib.machinery.EXTENSION_SUFFIXES
        for path in (out / "lib" / "zappatic").glob("_bareiss_c" + suffix)
    ]
    if build.returncode != 0 or not built:
        pytest.fail(f"C kernel did not build:\n{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("zappatic._bareiss_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_linalg(bareiss_c, monkeypatch):
    """``zappatic.linalg`` on the freshly built kernel; restores the backend."""
    monkeypatch.setattr(linalg, "_c", bareiss_c)
    old = linalg.backend_name()
    linalg.set_backend("compiled")
    yield bareiss_c
    linalg.set_backend(old)
