"""Content-reducing exact row reduction over the integers.

Matrices are sequences of equal-length rows of Python ints.  Every row is
kept primitive (content 1, first nonzero entry positive): a pivot row p
replaces each row r with a nonzero entry in its column by the primitive part
of a*r - b*p, the smallest integer combination that is 0 there, and leaves
the other rows alone.  Each row is the fraction-free (Bareiss 1968) row
divided by its content, so no entry exceeds the Bareiss minor.  The reduced
echelon form returned by :func:`rref` is canonical: rows primitive, pivots
positive, pivot columns strictly increasing.  Two row spans are equal iff
their rref rows are equal, which the rest of the package relies on for
hashing and bit-exact determinism.
"""

from __future__ import annotations

from math import gcd
from operator import index


def _primitive(row):
    """Divide by the content and make the first nonzero entry positive.

    The entries come back as Python ints, also for int subclasses (bool)."""
    return _divide_content([*map(index, row)])


def _divide_content(row):
    """_primitive of a list of Python ints."""
    g = gcd(*row)
    if not g:
        return tuple(row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _eliminate(row, pivot_row, c):
    """Primitive part of a*row - b*pivot_row, which is 0 in column c.

    pivot_row is 0 before column c, so only a*row is taken there."""
    p, q = pivot_row[c], row[c]
    g = gcd(p, q)
    a, b = p // g, q // g
    return _divide_content(
        [a * x for x in row[:c]]
        + [a * x - b * y for x, y in zip(row[c:], pivot_row[c:])]
    )


def _echelon(rows):
    """Forward elimination: (matrix, pivot_cols), matrix[: len(pivot_cols)]
    in row echelon form.  Never modifies the input."""
    m = [_primitive(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                m[i] = _eliminate(m[i], m[r], c)
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

    The backward pass is the forward update applied upward (Gauss-Jordan)."""
    m, pivots = _echelon(rows)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for a in range(i):
            if m[a][c]:
                m[a] = _eliminate(m[a], m[i], c)
    return tuple(m[: len(pivots)])
