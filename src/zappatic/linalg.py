"""Exact linear algebra entry points with backend dispatch.

Every rank/kernel/echelon computation in the package goes through here.  At
import time the compiled int64 kernel (zappatic._bareiss_c, fraction-free
Bareiss elimination in one hand-written C file) is selected when available.
It raises OverflowError for whatever it cannot hold: a product or difference
outside int64, an entry that is -2**63, larger or not an int, or a ragged
matrix.  Each call then falls back transparently to the pure-Python
arbitrary-precision kernel (zappatic._bareiss, content-reducing elimination
that keeps every row primitive), which decides, so both backends give the
same answer for every input.  ZAPPATIC_PURE_PYTHON=1 forces the pure
backend.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd

from zappatic import _bareiss as _py

try:
    from zappatic import _bareiss_c as _c
except ImportError:  # extension not built
    _c = None

_FORCE_PURE = os.environ.get("ZAPPATIC_PURE_PYTHON") == "1"
_backend = "python" if (_c is None or _FORCE_PURE) else "compiled"


def backend_name() -> str:
    return _backend


def available_backends() -> tuple[str, ...]:
    return ("python",) if _c is None else ("python", "compiled")


def set_backend(name: str) -> None:
    """Switch backends at runtime (used by tests and benchmarks)."""
    global _backend
    if name not in available_backends():
        raise ValueError(f"unknown backend {name!r}; have {available_backends()}")
    _backend = name


def rank(rows) -> int:
    if _backend == "compiled":
        try:
            return _c.rank(rows)
        except OverflowError:
            pass
    return _py.rank(rows)


def rref(rows) -> tuple[tuple[int, ...], ...]:
    if _backend == "compiled":
        try:
            return _c.rref(rows)
        except OverflowError:
            pass
    return _py.rref(rows)


def primitive(row) -> tuple[int, ...]:
    """Integer vector divided by its content, first nonzero entry positive."""
    return _py._primitive(row)


def clear_denominators(row) -> tuple[int, ...]:
    """Scale a row of ints/Fractions to a primitive integer row."""
    fr = [Fraction(x) for x in row]
    lcm = 1
    for x in fr:
        d = x.denominator
        lcm = lcm // gcd(lcm, d) * d
    return primitive([int(x * lcm) for x in fr])


def nullspace(rows, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Canonical primitive integer basis of the right kernel.

    ncols is required when rows is empty (kernel of the zero map).
    """
    rows = list(rows)
    if not rows:
        if ncols is None:
            raise ValueError("ncols needed for an empty matrix")
        return tuple(
            tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)
        )
    n = len(rows[0])
    red = rref(rows)
    pivots = []
    for r in red:
        for j, x in enumerate(r):
            if x:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -Fraction(red[i][f], red[i][c])
        basis.append(clear_denominators(vec))
    return tuple(basis)


def solve(rows, rhs) -> list[Fraction] | None:
    """One exact solution of A x = rhs, or None when inconsistent.

    Free variables are set to zero.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red = rref(aug)
    x = [Fraction(0)] * n
    # In rref every non-pivot entry of a row sits over a free column; with
    # free variables pinned to zero each row determines its pivot directly.
    for r in red:
        piv = next(j for j, v in enumerate(r) if v)
        if piv == n:
            return None
        x[piv] = Fraction(r[n], r[piv])
    return x
