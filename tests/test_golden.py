"""Byte-identity of CLI output against a recorded golden corpus.

Each case runs ``construct`` into a fixed relative file name (the name is
part of the JSON summary on stdout), then ``classify`` on that file, and
compares the sha256 digests of the construct stdout, the arrangement file
and the classify stdout with ``tests/golden/digests.json``.  Unlike the
determinism checks, which compare two runs of the same code, this catches a
refactor that changes any output byte.

Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from zappatic.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

CASES = {
    "chain_5": ["--family", "chain", "--d", "5"],
    "cycle_7": ["--family", "cycle", "--d", "7"],
    "X_8_2_7": ["--family", "X", "--d", "8", "--g", "2", "--seed", "7"],
    "X_12_4_0": ["--family", "X", "--d", "12", "--g", "4", "--seed", "0"],
    "Y_9_2_1": ["--family", "Y", "--d", "9", "--g", "2", "--seed", "1"],
    "Z_11_3_2": ["--family", "Z", "--d", "11", "--g", "3", "--seed", "2"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue().encode("utf-8")


def case_digests(name: str, workdir) -> dict:
    """Digests of one case, run with ``workdir`` as the current directory."""
    out = f"{name}.json"
    old = os.getcwd()
    os.chdir(workdir)
    try:
        construct = _run(["construct", *CASES[name], "--out", out])
        arrangement = Path(out).read_bytes()
        classify = _run(["classify", out])
    finally:
        os.chdir(old)
    return {
        "construct_stdout": _sha(construct),
        "arrangement": _sha(arrangement),
        "classify_stdout": _sha(classify),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert case_digests(name, tmp_path) == recorded[name]


def _record() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = {name: case_digests(name, work) for name in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} cases in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
