"""Exact projective linear algebra over the rationals.

Points, linear subspaces, quadratic forms and Pluecker coordinates are all
stored as primitive integer data, so equality of the underlying projective
objects is plain tuple equality and every computation reduces to integer row
reduction in zappatic.linalg.  Each constructor takes ints or Fractions and
normalises once.  A Subspace hands rows of plain ints straight to
linalg.rref, whose kernel makes every row content-free on its own, and clears
denominators per basis row with linalg.clear_denominators only when some
entry is not an int (a Fraction, a bool or another int subclass); a point
clears its coordinates, and a QuadricForm its whole matrix, the same way.

Conventions pinned here:
  * a Subspace is the row span of its canonical rref basis; projective
    dimension is (number of rows) - 1, the empty subspace has dimension -1;
  * Pluecker coordinates of a line in P^3 are the 2x2 minors of the two
    spanning rows in the order (p01, p02, p03, p12, p13, p23), so the Klein
    relation reads p01*p23 - p02*p13 + p03*p12 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, compress
from operator import itemgetter, mul

from zappatic import linalg
from zappatic.errors import RangeError


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^r as a primitive integer coordinate vector."""

    coords: tuple[int, ...]

    def __init__(self, coords):
        row = linalg.clear_denominators(coords)
        if not any(row):
            raise ValueError("zero vector is not a projective point")
        object.__setattr__(self, "coords", row)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __repr__(self):
        return f"ProjPoint({list(self.coords)})"


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of P^r spanned by its canonical basis rows.

    The basis is linalg.rref of the given rows.  Rows of plain ints go to it
    as they are: the kernel divides every row by its content, and its rref
    is canonical, so clearing them first would change nothing.  Only when
    some entry is not an int are the rows cleared of denominators first.

    Lemma: y lies in S iff y is zero off S's support and every one of S's
    equations vanishes at y.  Every vector of S is zero off the support, and
    in the coordinate space on the support S is the row space of its basis
    restricted to those columns, which is the orthogonal complement of that
    restriction's right kernel, whose basis the equations are.  So meet
    reduces against the equations, and a containment test is that
    reduction with no column left.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __init__(self, ambient_dim: int, rows=()):
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim + 1:
                raise RangeError("basis row length does not match ambient dimension")
        if not {type(x) for r in rows for x in r} <= {int}:
            rows = [linalg.clear_denominators(r) for r in rows]
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", linalg.rref(rows) if rows else ())

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    @cached_property
    def support(self) -> frozenset[int]:
        """Coordinates that are nonzero somewhere on the subspace.

        Computed once per subspace, or set by coordinate_subspace, and not a
        field, so equality, hashing and repr see the basis alone.
        """
        return frozenset(c for c, col in enumerate(zip(*self.basis)) if any(col))

    @cached_property
    def equations(self) -> tuple[tuple[itemgetter, tuple[int, ...]], ...]:
        """linalg.nullspace of the basis restricted to the support columns,
        each form kept as (getter, coefficients) of its nonzero coordinates,
        so that it is evaluated on a row y as sum(map(mul, coefficients,
        getter(y))); cached like support, and like it not a field.

        A form is nonzero at its free column and at the pivot of a row that
        is nonzero there, so it has at least two nonzero coordinates and its
        getter returns a tuple.  A coordinate subspace has as many support
        columns as rows, so it has no equations and takes no kernel.
        """
        cols = sorted(self.support)
        if len(cols) == len(self.basis):
            return ()
        forms = linalg.nullspace([[row[c] for c in cols] for row in self.basis])
        return tuple([(itemgetter(*compress(cols, f)), tuple(filter(None, f))) for f in forms])

    def contains_point(self, p: ProjPoint) -> bool:
        """contains of the point's one-row subspace: p's coordinates are
        primitive with a positive leading entry, a canonical basis row."""
        return self.contains(_canonical(p.ambient_dim, [p.coords]))

    def contains(self, other: "Subspace") -> bool:
        """Whether meet's reduction of other against this subspace leaves no
        column; with the supports tested first it reads no column of other."""
        _check_same_ambient(self, other)
        return (other.support <= self.support
                and next(_reduced_columns(self, other), None) is None)

    def point(self) -> ProjPoint:
        """The point that this subspace is.  Its one canonical basis row is
        primitive with a positive leading entry, which is ProjPoint's normal
        form, so it is set directly, as _canonical sets a basis."""
        if self.dim != 0:
            raise RangeError("subspace is not a single point")
        p = object.__new__(ProjPoint)
        object.__setattr__(p, "coords", self.basis[0])
        return p

    def coords_of(self, p: ProjPoint) -> tuple[Fraction, ...]:
        """Coordinates of p in this subspace's basis (p must lie on it)."""
        eqs = [[row[c] for row in self.basis] for c in range(self.ambient_dim + 1)]
        sol = linalg.solve(eqs, list(p.coords))
        if sol is None:
            raise RangeError("point does not lie on the subspace")
        return tuple(sol)

    def __repr__(self):
        return f"Subspace(P^{self.ambient_dim}, dim={self.dim})"


def _check_same_ambient(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise RangeError("ambient dimension mismatch")


def span(points, ambient_dim: int) -> Subspace:
    """Smallest subspace containing the given points (empty input allowed)."""
    rows = []
    for p in points:
        if p.ambient_dim != ambient_dim:
            raise RangeError("ambient dimension mismatch")
        rows.append(list(p.coords))
    return Subspace(ambient_dim, rows)


def span_subspaces(subspaces, ambient_dim: int) -> Subspace:
    rows = []
    for s in subspaces:
        if s.ambient_dim != ambient_dim:
            raise RangeError("ambient dimension mismatch")
        rows.extend(s.basis)
    return Subspace(ambient_dim, rows)


def _canonical(ambient_dim: int, basis) -> Subspace:
    """The Subspace whose canonical basis is already known, set directly,
    without a reduction."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "ambient_dim", ambient_dim)
    object.__setattr__(s, "basis", tuple(basis))
    return s


def coordinate_subspace(ambient_dim: int, coords) -> Subspace:
    """The subspace spanned by the unit vectors e_c, c in coords.

    Its canonical basis is those unit rows in increasing order of c, so it
    is set directly, and so is its support, the set of those c, which
    would otherwise be read off every column of the basis.
    """
    coords = sorted(coords)
    basis = []
    for c in coords:
        row = [0] * (ambient_dim + 1)
        row[c] = 1
        basis.append(tuple(row))
    s = _canonical(ambient_dim, basis)
    object.__setattr__(s, "support", frozenset(coords))
    return s


def _reduced_columns(a, b):
    """The nonzero columns of meet's reduced matrix R, produced lazily:
    b's own columns off a's support, then, for each equation f of a, the
    column (f.B_i)_i (see meet)."""
    for c in b.support - a.support:
        yield [row[c] for row in b.basis]
    for get, f in a.equations:
        col = [sum(map(mul, f, get(row))) for row in b.basis]
        if any(col):
            yield col


def _small_kernel(cols):
    """Left kernel, in rref, of the matrix with these nonzero columns of
    three entries each, decided from cross products (see meet): [] at rank
    3, [c] at rank 2, at rank 1 the rref of the plane orthogonal to the
    first column, and at rank 0 linalg.nullspace of no column, the unit
    vectors.  cols is read no further than the column that proves rank 3."""
    cols = iter(cols)
    first = next(cols, None)
    if first is None:
        return linalg.nullspace([], ncols=3)
    x, y, z = first
    for u, v, w in cols:
        c = (y * w - z * v, z * u - x * w, x * v - y * u)
        if any(c):
            # cols resumes after the column that gave c
            p, q, r = c
            for u, v, w in cols:
                if p * u + q * v + r * w:
                    return []
            return [c]
    if z:
        return [linalg.primitive((z, 0, -x)), linalg.primitive((0, z, -y))]
    if y:
        return [linalg.primitive((y, -x, 0)), (0, 0, 1)]
    return [(0, 1, 0), (0, 0, 1)]


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection, from the columns that the supports leave nonzero
    and the equations of one side.

    Two shortcuts need no kernel.  Disjoint supports leave no shared nonzero
    vector, since every vector of a lives on the support of a and every
    vector of b on that of b; the empty subspace has empty support, so this
    covers it too.  A canonical basis has a pivot column per row and is zero
    at the other rows' pivots, so a subspace with as many support columns as
    rows is spanned by unit vectors: a coordinate subspace.  Two of those
    meet in the coordinate subspace on the shared support.

    Otherwise let a be the side with more rows, and let b have m rows B_i.
    By the lemma of Subspace, a combination x.B lies in a exactly when it
    is zero off a's support and every equation f of a vanishes on it, that
    is when x.B[:, c] = 0 for each column c of B off a's support and
    x.(B.f) = 0 for each f, where B.f is the column (f.B_i)_i.  So x lies in
    the left kernel of the matrix R of those columns.  The rows of B are
    independent, so x -> x.B is injective and maps that kernel onto the
    intersection.  Each column of B off a's support is zero unless it is in
    b's support, and a zero column of R adds no condition, so R is made of
    b's own columns off a's support and the nonzero B.f.  They are produced
    lazily in that order, so a meet that b's own columns decide reads no
    equation, and a computes its equations, once, only when one is read.

    This is the reduction of B against a's rref, read through equations.
    Let a have canonical rows A_j with pivot columns p_j, pivot values q_j
    and L = lcm(q_j).  The equation for a's free column c is a nonzero
    multiple of g_c = L.e_c - sum_j (L/q_j).A_j[c].e_(p_j), so B.f is a
    nonzero multiple of B.g_c, the column that R_i = L.B_i -
    sum_j B_i[p_j].(L/q_j).A_j has at c.  Scaling a column changes no
    kernel, so R has the left kernel of that reduction, and the meet is
    the same canonical subspace.

    When b is a plane, m = 3, the rank of R is read off cross products,
    stopping at the first column that proves rank 3 (the meet is empty).
    Cross the first column r with each later column until a cross product c
    is nonzero, at column j.  The columns between r and column j lie on the
    line of r, so they, r and column j are all orthogonal to c, and c spans
    the vectors orthogonal to both r and column j.  So R has rank 3 exactly
    when some column after j has a nonzero dot product with c; otherwise
    every column lies in the span of r and column j, the rank is 2 and the
    kernel is (c).  When no cross product is nonzero, every column is a
    multiple of the first, (x, y, z), and the kernel is the plane
    orthogonal to it (a meet that is a line).  Its rref is written down,
    each row made primitive: if z != 0, (z, 0, -x) and (0, z, -y), signed
    so that z > 0, which are zero at each other's pivot; if z = 0 and
    y != 0, (y, -x, 0) and (0, 0, 1); and otherwise (0, 1, 0) and
    (0, 0, 1).  With no column at all (b lies in a) the kernel is
    linalg.nullspace of none, the unit vectors.  For any other m the kernel
    is linalg.nullspace of all the columns, put in rref when it has more
    than one vector.

    The meet is spanned by the images v.B of a kernel basis, and its
    canonical basis is read off them with no reduction of the images.
    B is canonical: its pivot columns p_i increase, and B_i is positive at
    p_i and zero at every other p_l.  A row v of rref(K) with pivot k is
    zero before k and at every other row's pivot l, so v.B is zero before
    p_k, is v_k.B_k[p_k] > 0 at p_k, and is v_l.B_l[p_l] = 0 at p_l.  So the
    rows of rref(K).B are in reduced echelon form, each made primitive is a
    canonical basis row, and they are set as they are.  One vector c needs
    no rref: primitive(c.B) is the one canonical row, with its sign fixed.
    """
    got = _meet_kernel(a, b)
    if isinstance(got, Subspace):
        return got
    b, kernel = got
    images = [[sum(map(mul, v, col)) for col in zip(*b.basis)] for v in kernel]
    return _canonical(a.ambient_dim, [linalg.primitive(row) for row in images])


def meet_dim(a: Subspace, b: Subspace) -> int:
    """meet(a, b).dim, from meet's shortcuts and kernel alone: x -> x.B is
    injective on the kernel (see meet), so the meet has one dimension per
    kernel vector, and its canonical rows, with their products and
    contents, are never formed."""
    got = _meet_kernel(a, b)
    if isinstance(got, Subspace):
        return got.dim
    return len(got[1]) - 1


def _meet_kernel(a: Subspace, b: Subspace):
    """The part of meet that meet_dim shares: the meet itself when one of
    the two shortcuts decides it, and otherwise (b, kernel), the side b
    with fewer rows and the rref of the left kernel of the reduced matrix
    R."""
    _check_same_ambient(a, b)
    if a.support.isdisjoint(b.support):
        return _canonical(a.ambient_dim, ())
    if len(a.support) == len(a.basis) and len(b.support) == len(b.basis):
        return coordinate_subspace(a.ambient_dim, a.support & b.support)
    if len(a.basis) < len(b.basis):
        a, b = b, a
    cols = _reduced_columns(a, b)
    if len(b.basis) == 3:
        return b, _small_kernel(cols)
    kernel = linalg.nullspace(list(cols), ncols=len(b.basis))
    return b, linalg.rref(kernel) if len(kernel) > 1 else kernel


@dataclass(frozen=True)
class QuadricForm:
    """Nonzero quadratic form on P^r as a primitive symmetric integer matrix.

    The matrix is twice the polarization when that is what it takes to stay
    integral; all uses (rank, vanishing, tangency) are scale invariant.
    """

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix):
        rows = [list(r) for r in matrix]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise RangeError("quadric matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise RangeError("quadric matrix must be symmetric")
        flat = linalg.clear_denominators([x for r in rows for x in r])
        if not any(flat):
            raise RangeError("quadric form must be nonzero")
        mat = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        object.__setattr__(self, "matrix", mat)

    @property
    def ambient_dim(self) -> int:
        return len(self.matrix) - 1

    def evaluate(self, p: ProjPoint) -> int:
        return self.bilinear(p.coords, p.coords)

    def bilinear(self, u, v) -> int:
        return sum(
            u[i] * self.matrix[i][j] * v[j]
            for i in range(len(self.matrix))
            for j in range(len(self.matrix))
        )

    def restrict(self, s: Subspace) -> "QuadricForm":
        """Form induced on the subspace, in its basis coordinates: congruent
        by the matrix whose columns are its basis rows."""
        return self.congruent(zip(*s.basis))

    def congruent(self, m) -> "QuadricForm":
        """Form after substituting x -> M x, i.e. the matrix M^T A M: the
        Gram matrix of the columns of M under bilinear."""
        cols = list(zip(*m))
        return QuadricForm([[self.bilinear(u, v) for v in cols] for u in cols])


def quadric_rank(q: QuadricForm) -> int:
    """Rank of the symmetric matrix over the rationals."""
    return linalg.rank([list(r) for r in q.matrix])


def _quadric_monomials(r: int):
    return list(combinations_with_replacement(range(r + 1), 2))


def _evaluation_row(coords, monomials):
    return [coords[i] * coords[j] for (i, j) in monomials]


def _form_from_coeffs(coeffs, monomials, r: int) -> QuadricForm:
    n = r + 1
    mat = [[0] * n for _ in range(n)]
    for c, (i, j) in zip(coeffs, monomials):
        if i == j:
            mat[i][i] = 2 * c
        else:
            mat[i][j] = c
            mat[j][i] = c
    return QuadricForm(mat)


def quadric_conditions(samples, forced_subspaces, ambient_dim: int):
    """(monomials, rows): one linear condition on the coefficients of a
    quadric of P^ambient_dim per row, for passing through each sample and
    containing each forced subspace.

    Containing a subspace is imposed by vanishing on a spanning set of its
    degree-2 Veronese image: the points b_i + b_j, i <= j, of its basis.
    The quadrics that satisfy them are the kernel, so their number is
    len(monomials) minus the rank of the rows.
    """
    monomials = _quadric_monomials(ambient_dim)
    rows = []
    for p in samples:
        if p.ambient_dim != ambient_dim:
            raise RangeError("ambient dimension mismatch")
        rows.append(_evaluation_row(p.coords, monomials))
    for s in forced_subspaces:
        if s.ambient_dim != ambient_dim:
            raise RangeError("ambient dimension mismatch")
        for u, v in combinations_with_replacement(s.basis, 2):
            rows.append(_evaluation_row([x + y for x, y in zip(u, v)], monomials))
    return monomials, rows


def quadrics_through(samples, forced_subspaces, ambient_dim: int):
    """Linear system of quadrics through the samples and forced subspaces.

    Returns (projective dimension, basis of QuadricForms); dimension is -1
    for the empty system.
    """
    monomials, rows = quadric_conditions(samples, forced_subspaces, ambient_dim)
    kernel = linalg.nullspace(rows, ncols=len(monomials))
    basis = [_form_from_coeffs(v, monomials, ambient_dim) for v in kernel]
    return len(basis) - 1, basis


# -- Pluecker coordinates -------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class PluckerPoint:
    """Point of P^5 on the Klein quadric, as primitive integers."""

    coords: tuple[int, ...]

    def __init__(self, coords):
        row = linalg.clear_denominators(coords)
        if len(row) != 6 or not any(row):
            raise ValueError("need a nonzero 6-vector")
        object.__setattr__(self, "coords", row)
        if klein_value(row) != 0:
            raise ValueError("coordinates violate the Klein relation")


def klein_value(c) -> int:
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def plucker(line: Subspace) -> PluckerPoint:
    """Pluecker image of a line in P^3."""
    if line.ambient_dim != 3 or line.dim != 1:
        raise RangeError("need a line (dim 1) in P^3")
    return PluckerPoint(_minors(*line.basis))


def _minors(u, v):
    """The 2x2 minors of rows u and v of P^3, in _PAIRS order: the Pluecker
    coordinates of the line they span, up to a nonzero factor."""
    return [u[i] * v[j] - u[j] * v[i] for (i, j) in _PAIRS]


def dual_plane_in_klein(pi: Subspace) -> Subspace:
    """Plane of P^5 swept by the Pluecker images of the lines of a plane.

    Spanned by the images of the three lines joining pairs of basis points,
    read off each pair's minors; it lies entirely inside the Klein quadric.
    """
    if pi.ambient_dim != 3 or pi.dim != 2:
        raise RangeError("need a plane (dim 2) in P^3")
    out = Subspace(5, [_minors(u, v) for u, v in combinations(pi.basis, 2)])
    if out.dim != 2:
        raise RangeError("degenerate plane basis")
    return out
