"""Arrangement files: a stable JSON format for plane configurations.

Each plane is a 3 x (r+1) matrix of rationals stored as [numerator,
denominator] pairs in lowest terms; integers that do not fit in a signed
64-bit word are written as decimal strings.  Field order is fixed so equal
inputs serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from zappatic.arrangement import Arrangement
from zappatic.errors import RangeError
from zappatic.projective import Subspace

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _encode_int(x: int):
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


def _decode_int(x) -> int:
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:  # not a decimal integer, or over the int-string limit
            pass
    raise RangeError(f"bad integer entry {x!r:.40}")


def arrangement_to_dict(arr: Arrangement, metadata: dict | None = None) -> dict:
    planes = []
    for p in arr.planes:
        rows = []
        for row in p.subspace.basis:
            rows.append([[_encode_int(x), 1] for x in row])
        planes.append(rows)
    out = {"ambient_dim": arr.ambient_dim, "planes": planes}
    if metadata:
        out["metadata"] = metadata
    return out


def arrangement_from_dict(data: dict) -> tuple[Arrangement, dict]:
    try:
        n = data["ambient_dim"]
        raw_planes = data["planes"]
    except (KeyError, TypeError) as exc:
        raise RangeError(f"malformed arrangement file: missing {exc}")
    if not isinstance(n, int) or n < 2:
        raise RangeError("ambient_dim must be an integer >= 2")
    metadata = data.get("metadata", {})
    if not isinstance(raw_planes, list) or not isinstance(metadata, dict):
        raise RangeError("planes must be a list and metadata an object")
    if not isinstance(metadata.get("family", ""), str):
        raise RangeError("metadata family must be a string")
    subs = []
    for rows in raw_planes:
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise RangeError("each plane must be a list of rows")
        basis = []
        for row in rows:
            entries = []
            for pair in row:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise RangeError("rational entries must be [num, den] pairs")
                num = _decode_int(pair[0])
                den = _decode_int(pair[1])
                if den <= 0:
                    raise RangeError("denominators must be positive")
                entries.append(Fraction(num, den))
            basis.append(entries)
        subs.append(Subspace(n, basis))
    return Arrangement(n, subs), metadata


def dumps(arr: Arrangement, metadata: dict | None = None) -> str:
    return json.dumps(arrangement_to_dict(arr, metadata), sort_keys=True, indent=1) + "\n"


def write_arrangement(path, arr: Arrangement, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(arr, metadata))


def read_arrangement(path) -> tuple[Arrangement, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RangeError(f"malformed arrangement file: {exc}")
    return arrangement_from_dict(data)
