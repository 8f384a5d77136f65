"""Byte-identity of CLI output against a recorded golden corpus.

Each case runs ``construct`` into a fixed relative file name (the name is
part of the JSON summary on stdout), then ``classify`` on that file, and
compares the sha256 digests of the construct stdout, the arrangement file
and the classify stdout with ``tests/golden/digests.json``.  Unlike the
determinism checks, which compare two runs of the same code, this catches a
refactor that changes any output byte.

The attachment ledger digests cover what the CLI does not print: the planes
and every attachment record (chosen planes, anchors, lines, ``span_pi``, new
plane indices, seed and retries) of builds chosen to reach each retry path.

Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from zappatic.cli import main
from zappatic.constructions import build_X, build_Y, build_Z, cycle_from_chain

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

CASES = {
    "chain_5": ["--family", "chain", "--d", "5"],
    "cycle_7": ["--family", "cycle", "--d", "7"],
    "X_8_2_7": ["--family", "X", "--d", "8", "--g", "2", "--seed", "7"],
    "X_12_4_0": ["--family", "X", "--d", "12", "--g", "4", "--seed", "0"],
    "Y_9_2_1": ["--family", "Y", "--d", "9", "--g", "2", "--seed", "1"],
    "Z_11_3_2": ["--family", "Z", "--d", "11", "--g", "3", "--seed", "2"],
}

LEDGER_CASES = {
    "X_10_3_1": lambda: build_X(10, 3, 1),  # X retries
    "X_12_4_1": lambda: build_X(12, 4, 1),
    "Y_9_2_7": lambda: build_Y(9, 2, 7),  # retry on the free-line pair
    "Y_9_2_37": lambda: build_Y(9, 2, 37),  # retry on an anchored pair
    "Z_8_2_13": lambda: build_Z(8, 2, 13),  # retry on the 5-cycle pair
    "Z_11_3_2": lambda: build_Z(11, 3, 2),
    "cycle_from_chain_5_21": lambda: cycle_from_chain(5, 21),  # extra line allowed
    "cycle_from_chain_6_22": lambda: cycle_from_chain(6, 22),
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


def ledger_digest(name: str) -> str:
    """Digest of the planes and attachment records of one ledger case."""
    result = LEDGER_CASES[name]()
    payload = {
        "planes": [p.subspace.basis for p in result.arrangement.planes],
        "attachments": [dataclasses.asdict(rec) for rec in result.attachments],
    }
    return _sha(json.dumps(payload, sort_keys=True).encode("utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert case_digests(name, tmp_path) == recorded[name]


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_attachment_ledger(name):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert ledger_digest(name) == recorded["attachment_ledger"][name]


def _record() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = {name: case_digests(name, work) for name in sorted(CASES)}
    digests["attachment_ledger"] = {name: ledger_digest(name) for name in sorted(LEDGER_CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} CLI cases and {len(LEDGER_CASES)} ledger cases in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
