"""Exact linear algebra entry points.

Every rank/kernel/echelon computation in the package goes through here.
rank and rref run the one kernel, zappatic._bareiss: content-reducing
elimination over arbitrary-precision ints that keeps every row content-free.

clear_denominators is the one place where a rational row becomes a
primitive integer row; nullspace is integer-only, and only solve returns
Fractions.

sparse_rank ranks a matrix given as sparse columns, such as a boundary
matrix, by column reduction over the integers.

rank_mod_p is the rank over the integers mod a prime.  It is a lower bound
on the rank over the rationals (a minor that is nonzero mod p is nonzero),
so it certifies a full rank and nothing else: a caller takes it when it
equals min(rows, columns), and otherwise asks rank, the one exact kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

from zappatic import _bareiss as _py

# The largest prime below 2**15: a product of two residues stays below 2**30.
MODULUS = 32749


def backend_name() -> str:
    """The kernel's name; there is one, the pure-Python kernel."""
    return "python"


def available_backends() -> tuple[str, ...]:
    return ("python",)


def set_backend(name: str) -> None:
    """Accept the one kernel's name; any other is a ValueError."""
    if name != "python":
        raise ValueError(f"unknown backend {name!r}; have {available_backends()}")


def rank(rows) -> int:
    return _py.rank(rows)


def rref(rows) -> tuple[tuple[int, ...], ...]:
    return _py.rref(rows)


def rank_mod_p(rows, p: int = MODULUS) -> int:
    """Rank of an integer matrix over the integers mod the prime p.

    Rows are read once and their entries through operator.index, as rank
    reads them.  Plain Gaussian elimination on residues: a pivot row is
    scaled to -1 at its pivot, and adding a multiple of it clears the column
    below.  Rows are held reversed, so that the columns still to be cleared
    are a prefix and a combined row keeps only that prefix.
    """
    m = []
    for row in rows:
        row = [index(x) % p for x in row]
        row.reverse()
        m.append(row)
    if not m:
        return 0
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    nrows = len(m)
    rank = 0
    for c in range(ncols - 1, -1, -1):
        for i in range(rank, nrows):
            if m[i][c]:
                break
        else:
            continue
        pivot = m[i]
        m[i] = m[rank]
        rank += 1
        if rank == nrows:
            break
        s = p - pow(pivot[c], -1, p)
        pivot = [y * s % p for y in pivot[:c]]
        for j in range(rank, nrows):
            row = m[j]
            f = row[c]
            if f:
                m[j] = [(x + f * y) % p for x, y in zip(row, pivot)]
    return rank


def sparse_rank(columns) -> int:
    """Rank over the rationals of the matrix with these sparse columns.

    Each column maps a row label to its integer entry; zero entries are
    ignored and the columns are not modified.  Column reduction (Edelsbrunner
    and Harer, Computational Topology, VII.1): while a kept column has the
    same pivot (largest row label), a column becomes the integer combination
    that clears it, over its content; the rank is the number of columns kept.
    """
    kept = {}  # pivot row -> reduced column
    for c in columns:
        col = {r: x for r, x in c.items() if x}
        while col:
            p = max(col)
            other = kept.get(p)
            if other is None:
                kept[p] = col
                break
            g = gcd(other[p], col[p])
            a, b = other[p] // g, col[p] // g
            if a != 1:
                col = {r: a * x for r, x in col.items()}
            for r, x in other.items():
                y = col.get(r, 0) - b * x
                if y:
                    col[r] = y
                else:
                    del col[r]
            content = gcd(*col.values())
            if content > 1:
                col = {r: x // content for r, x in col.items()}
    return len(kept)


def primitive(row) -> tuple[int, ...]:
    """Integer vector divided by its content, first nonzero entry positive.

    The entries come back as Python ints, also for int subclasses (bool)."""
    row = [*map(index, row)]
    g = gcd(*row)
    if not g:
        return tuple(row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def clear_denominators(row) -> tuple[int, ...]:
    """Scale a row of ints (bools too) and Fractions to a primitive integer row.

    Each entry is read through its numerator and denominator, so an int row
    builds no Fraction.  Any other entry, such as a float, raises TypeError:
    the package has no floating point, and 0.5 is not taken to mean 1/2.
    """
    row = list(row)
    try:
        dens = [x.denominator for x in row]
        m = lcm(*dens)
        return primitive([x.numerator * (m // d) for x, d in zip(row, dens)])
    except AttributeError:
        bad = next(x for x in row
                   if not (hasattr(x, "numerator") and hasattr(x, "denominator")))
        raise TypeError(f"entry {bad!r} is neither an int nor a Fraction") from None


def nullspace(rows, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Canonical primitive integer basis of the right kernel.

    Free column f of the rref gives 1 at f and -red[i][f] / red[i][c_i] at
    each pivot column c_i, times the lcm m of the pivots it divides by.
    ncols is required when rows is empty (kernel of the zero map).
    """
    rows = list(rows)
    if not rows and ncols is None:
        raise ValueError("ncols needed for an empty matrix")
    n = len(rows[0]) if rows else ncols
    red = rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        m = lcm(*(r[c] for r, c in zip(red, pivots) if r[f]))
        vec = [0] * n
        vec[f] = m
        for r, c in zip(red, pivots):
            vec[c] = -r[f] * (m // r[c])
        basis.append(primitive(vec))
    return tuple(basis)


def solve(rows, rhs) -> list[Fraction] | None:
    """One exact solution of A x = rhs, or None when inconsistent.

    Free variables are set to zero.  rhs needs one entry per row; a system
    with no rows is consistent, and its solution is [].
    """
    rows = [list(r) for r in rows]
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    n = len(rows[0]) if rows else 0
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
