"""Content-reducing exact row reduction over the integers.

Matrices are sequences of equal-length rows of Python ints.  Every row is
kept content-free (the gcd of its entries is 1, or it is 0) during
elimination, with whatever sign it has: a pivot row p replaces each row r
with a nonzero entry in its column by a*r - b*p divided by its content,
where a*r - b*p is the smallest integer combination that is 0 there, and
leaves the other rows alone.  Each row is the fraction-free (Bareiss 1968)
row divided by its content, so no entry exceeds the Bareiss minor.  Signs
are fixed once, as :func:`rref` emits its rows; the rank does not depend on
them.  The reduced echelon form returned by :func:`rref` is canonical: rows
primitive, pivots positive, pivot columns strictly increasing and cleared.
Two row spans are equal iff their rref rows are equal, which the rest of
the package relies on for hashing and bit-exact determinism.
"""

from __future__ import annotations

from math import gcd
from operator import index


def _combine(row, pivot_row, c):
    """a*row - b*pivot_row over its content, where a and b are pivot_row[c]
    and row[c] over their gcd, so it is 0 in column c; a zero row comes back
    as it is.

    pivot_row is 0 before column c.  In the forward pass so is row, and
    combining the whole row costs no more than slicing off that head."""
    p, q = pivot_row[c], row[c]
    g = gcd(p, q)
    a, b = p // g, q // g
    if a == 1:
        out = [x - b * y for x, y in zip(row, pivot_row)]
    else:
        out = [a * x - b * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return out if g < 2 else [x // g for x in out]


def _echelon(rows):
    """Forward elimination: (matrix, pivot_cols), matrix[: len(pivot_cols)]
    in row echelon form, as content-free lists of ints of either sign.
    Never modifies the input."""
    m = []
    for row in rows:
        row = [*map(index, row)]
        g = gcd(*row)
        m.append(row if g < 2 else [x // g for x in row])
    if not m:
        return [], []
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        pivot_row = m[piv]
        m[piv], m[r] = m[r], pivot_row
        for i in range(r + 1, nrows):
            if m[i][c]:
                m[i] = _combine(m[i], pivot_row, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    """Rank over the rationals."""
    _, pivots = _echelon(rows)
    return len(pivots)


def rref(rows):
    """Canonical integer reduced row echelon form (tuple of tuple rows).

    The backward pass is the forward update applied upward (Gauss-Jordan);
    each row's pivot is made positive as the row is emitted."""
    m, pivots = _echelon(rows)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        pivot_row = m[i]
        for a in range(i):
            if m[a][c]:
                m[a] = _combine(m[a], pivot_row, c)
    return tuple([tuple(row) if row[c] > 0 else tuple([-x for x in row])
                  for row, c in zip(m, pivots)])
