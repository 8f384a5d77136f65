"""Byte-identity of CLI output against a recorded golden corpus.

Each case makes one arrangement file, ``<case>.json``, with ``construct``
(the file name is part of the JSON summary on stdout) or, for a named
triangulation, with ``serialize.write_arrangement`` of its coordinate
planes.  It then reads the file with ``classify``, and with ``invariants
--smooth`` and ``graph --dot <case>.dot`` where the case lists them.  The
sha256 of every step's stdout and of every file a step writes is compared
with ``tests/golden/digests.json``.  Unlike the determinism checks, which
compare two runs of the same code, this catches a refactor that changes
any output byte.

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
from itertools import product
from pathlib import Path

import pytest

from zappatic.arrangement import Arrangement
from zappatic.cli import main
from zappatic.constructions import build_X, build_Y, build_Z, cycle_from_chain
from zappatic.projective import coordinate_subspace
from zappatic.serialize import write_arrangement

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
OCTAHEDRON = list(product((0, 1), (2, 3), (4, 5)))
MOEBIUS_TORUS = [t for i in range(7) for t in ((i, (i + 1) % 7, (i + 3) % 7),
                                               (i, (i + 2) % 7, (i + 3) % 7))]

ALL_READS = ("classify", "invariants", "graph")

# case: (construct arguments, or (n, triangles) for the coordinate planes of
# a triangulation in P^n, and the reads of the file)
CASES = {
    "chain_5": ("--family chain --d 5", ("classify",)),
    "cycle_7": ("--family cycle --d 7", ("classify",)),
    "X_8_2_7": ("--family X --d 8 --g 2 --seed 7", ("classify",)),
    "X_12_4_0": ("--family X --d 12 --g 4 --seed 0", ("classify",)),
    "Y_9_2_1": ("--family Y --d 9 --g 2 --seed 1", ("classify",)),
    "Z_11_3_2": ("--family Z --d 11 --g 3 --seed 2", ("classify",)),
    # builds larger than the acceptance grid
    "x48": ("--family X --d 48 --g 4 --seed 0", ALL_READS),
    "z30": ("--family Z --d 30 --g 6 --seed 0", ALL_READS),
    "z44": ("--family Z --d 44 --g 14 --seed 0", ALL_READS),
    "z68": ("--family Z --d 68 --g 22 --seed 0", ALL_READS),
    "y40": ("--family Y --d 40 --g 8 --seed 0", ALL_READS),
    # Z(116,38) meets planes in P^41 with entries past 64 bits, X(120,20) in P^81
    "z116": ("--family Z --d 116 --g 38 --seed 0", ALL_READS),
    "x120": ("--family X --d 120 --g 20 --seed 0", ALL_READS),
    # X(64,30), a boundary build X(2g+4, g): 29 handles in P^5, entries past 6000 bits
    "x64": ("--family X --d 64 --g 30 --seed 0", ("classify",)),
    "chain40": ("--family chain --d 40 --seed 0", ALL_READS),
    "cycle40": ("--family cycle --d 40 --seed 0", ALL_READS),
    # 200 coordinate planes in P^201 and P^199: mostly support-disjoint pairs
    "chain200": ("--family chain --d 200 --seed 0", ALL_READS),
    "cycle200": ("--family cycle --d 200 --seed 0", ALL_READS),
    # cycle points, the only CLI path through E_n points, 2-cells and DOT
    # face lines: the tetrahedron (E3 x4, p_omega=1 chi=2, and
    # compute_incidence's line crossings), the octahedron (E4 x6) and the
    # 7-vertex Moebius torus (E6 x7, h1=2)
    "tetrahedron": ((3, TETRAHEDRON), ALL_READS),
    "octahedron": ((5, OCTAHEDRON), ALL_READS),
    "moebius_torus": ((6, MOEBIUS_TORUS), ALL_READS),
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
    source, reads = CASES[name]
    out, dot = f"{name}.json", f"{name}.dot"
    argvs = {
        "classify": ["classify", out],
        "invariants": ["invariants", "--smooth", out],
        "graph": ["graph", out, "--dot", dot],
    }
    digests = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        if isinstance(source, str):
            digests["construct_stdout"] = _sha(_run(["construct", *source.split(), "--out", out]))
        else:
            n, triangles = source
            write_arrangement(out, Arrangement(n, [coordinate_subspace(n, t) for t in triangles]))
        digests["arrangement"] = _sha(Path(out).read_bytes())
        for read in reads:
            digests[f"{read}_stdout"] = _sha(_run(argvs[read]))
        if "graph" in reads:
            digests["dot"] = _sha(Path(dot).read_bytes())
    finally:
        os.chdir(old)
    return digests


def ledger_digest(name: str) -> str:
    """Digest of the planes and attachment records of one ledger case."""
    result = LEDGER_CASES[name]()
    payload = {
        "planes": [p.basis for p in result.arrangement.planes],
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
