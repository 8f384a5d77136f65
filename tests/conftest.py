"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import zappatic


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
