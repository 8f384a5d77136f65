"""Independent reference implementations used only by the test suite.

Deliberately written over Fractions with textbook Gaussian elimination so
they share no code path with zappatic.linalg's integer Bareiss kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def frac_rref(rows):
    """Reduced row echelon form over Q, pivots normalized to 1."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return []
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                q = m[i][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return [row for row in m if any(row)]


def frac_rank(rows) -> int:
    return len(frac_rref(rows))


def frac_nullspace(rows, ncols=None):
    """Basis of the right kernel over Q (free variable = 1 pattern)."""
    rows = list(rows)
    if not rows:
        return [
            [Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)
        ]
    nc = len(rows[0])
    red = frac_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, c in zip(red, pivots):
            v[c] = -r[f]
        basis.append(v)
    return basis


def frac_primitive(vec):
    """Integer multiple of a rational vector with content 1, leading entry > 0."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def frac_meet(a_rows, b_rows, ncols):
    """Basis of the intersection of two row spans, through annihilators.

    The intersection is the common kernel of both annihilators (dual bases),
    each taken with frac_nullspace.
    """
    if not a_rows or not b_rows:
        return []
    ann = frac_nullspace(a_rows) + frac_nullspace(b_rows)
    return frac_nullspace(ann, ncols)
