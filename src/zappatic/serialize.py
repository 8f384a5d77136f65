"""Arrangement files: a stable JSON format for plane configurations.

Each plane is a 3 x (r+1) matrix of rationals stored as [numerator,
denominator] pairs in lowest terms; integers that do not fit in a signed
64-bit word are written as decimal strings.  Field order is fixed so equal
inputs serialize to identical bytes.

A file is the text of json.dumps(obj, sort_keys=True, indent=1) plus a
newline, but dumps writes the plane list itself by string joins: with an
indent, json.dumps always runs the pure-Python encoder, since CPython uses
its C encoder only for indent=None, and on the long plane lists of large
builds that costs about ten times the joins.  Reading goes through json.

write_text, the package's one file writer, writes over an existing file's
old bytes and then truncates it to the new length, keeping its inode, mode
and hard links, because truncating to zero before writing makes ext4 start
writing the new blocks back on close, which the next rewrite waits for; the
write is not atomic.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from zappatic.arrangement import Arrangement
from zappatic.errors import RangeError
from zappatic.projective import Subspace

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


_DECIMAL = re.compile("-?[0-9]+")


def _decode_int(x) -> int:
    if type(x) is int:  # what json.load gives for nearly every entry
        return x
    # a plain decimal string: int() would also take "1_0", " 0 ", "+1" and
    # non-ASCII digits
    if type(x) is str and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError:  # over the int-string limit
            pass
    raise RangeError(f"bad integer entry {x!r:.40}")


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
                entries.append(num if den == 1 else Fraction(num, den))
            basis.append(entries)
        subs.append(Subspace(n, basis))
    return Arrangement(n, subs), metadata


def _int_text(x: int) -> str:
    return str(x) if _I64_MIN <= x <= _I64_MAX else f'"{x}"'


def _list_text(items, depth: int) -> str:
    """A JSON list of already-encoded items, laid out at the given depth."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


# A basis row, _list_text([_list_text([_int_text(x), "1"], 4) for x in row], 3),
# spelled out as one join: a call per entry would take most of the time saved.
# In a row that fits int64, _int_text(x) is str(x).
_ROW_OPEN = "[\n    [\n     "
_ROW_SEP = ",\n     1\n    ],\n    [\n     "
_ROW_CLOSE = ",\n     1\n    ]\n   ]"


def _row_text(row) -> str:
    fits = _I64_MIN <= min(row) and max(row) <= _I64_MAX
    return _ROW_OPEN + _ROW_SEP.join(map(str if fits else _int_text, row)) + _ROW_CLOSE


def dumps(arr: Arrangement, metadata: dict | None = None) -> str:
    """The file text: json.dumps(obj, sort_keys=True, indent=1) plus a newline.

    obj holds "ambient_dim", then "metadata" when it is nonempty, then
    "planes" (the sorted key order); each entry is [x, 1], with x a string
    outside int64.  The plane list is joined here; ambient_dim and metadata
    go through json.dumps.  A JSON string holds no raw newline, so indenting
    every line of the metadata text by one space nests it one level down.
    The coordinate planes of a build share their unit rows, each row with
    up to two other planes, so each distinct row is rendered once.
    """
    text = {row: _row_text(row) for row in {row for p in arr.planes for row in p.basis}}
    planes = _list_text([
        _list_text([text[row] for row in p.basis], 2) for p in arr.planes
    ], 1)
    fields = [f'"ambient_dim": {json.dumps(arr.ambient_dim)}']
    if metadata:
        meta = json.dumps(metadata, sort_keys=True, indent=1).replace("\n", "\n ")
        fields.append(f'"metadata": {meta}')
    fields.append(f'"planes": {planes}')
    return "{\n " + ",\n ".join(fields) + "\n}\n"


def write_text(path, text: str) -> None:
    """Write text as UTF-8 to path, over the old bytes of an existing file."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_arrangement(path, arr: Arrangement, metadata: dict | None = None) -> None:
    write_text(path, dumps(arr, metadata))


def read_arrangement(path) -> tuple[Arrangement, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # ValueError: bad JSON, non-UTF-8 bytes or an over-long int literal
        except (ValueError, RecursionError) as exc:
            raise RangeError(f"malformed arrangement file: {exc}")
    return arrangement_from_dict(data)
