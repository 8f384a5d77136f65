import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zappatic import linalg
from zappatic.constructions import build_Z
from zappatic.errors import RangeError
from zappatic.projective import (
    _reduced_columns,
    _small_kernel,
    PluckerPoint,
    ProjPoint,
    QuadricForm,
    Subspace,
    coordinate_subspace,
    dual_plane_in_klein,
    klein_value,
    meet,
    meet_dim,
    plucker,
    quadric_rank,
    quadrics_through,
    span,
    span_subspaces,
)

from oracles import (
    bareiss_contains,
    frac_meet,
    frac_nullspace,
    frac_rank,
    frac_rref,
    klein_form,
)
from spy import spy


def e(i, n):
    return ProjPoint([1 if j == i else 0 for j in range(n)])


def random_point(rng, n, h=10):
    while True:
        c = [rng.randint(-h, h) for _ in range(n)]
        if any(c):
            return ProjPoint(c)


def rnc_point(t, d):
    """Point (1, t, ..., t^d) on the rational normal curve of degree d."""
    return ProjPoint([t**k for k in range(d + 1)])


class TestPoints:
    def test_proportional_points_equal(self):
        assert ProjPoint([2, 4, 6]) == ProjPoint([1, 2, 3])
        assert ProjPoint([Fraction(1, 2), Fraction(1, 3)]) == ProjPoint([3, 2])
        assert ProjPoint([-1, 2]) == ProjPoint([1, -2])

    def test_coordinates_are_python_ints(self):
        p = ProjPoint([True, 0])
        assert repr(p) == "ProjPoint([1, 0])"
        assert all(type(x) is int for x in p.coords)
        assert repr(ProjPoint([False, True, True])) == "ProjPoint([0, 1, 1])"

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint([0, 0, 0])

    def test_point_of_a_subspace_is_its_basis_row(self):
        """Subspace.point sets the canonical basis row as the coordinates:
        it is the ProjPoint of that row, in ==, in hash and in int coords,
        also on the point meets of a Z build with entries past 64 bits."""
        wide = 0
        for a, b in combinations(build_Z(32, 10, 0).arrangement.planes, 2):
            m = meet(a, b)
            if m.dim != 0:
                continue
            p, q = m.point(), ProjPoint(m.basis[0])
            assert p == q and hash(p) == hash(q) and p.coords == q.coords
            assert all(type(x) is int for x in p.coords)
            wide += max(map(abs, p.coords)).bit_length() > 64
        assert wide

    @pytest.mark.parametrize("rows", [[], [[1, 0, 0, 0], [0, 1, 0, 0]],
                                      [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]])
    def test_point_of_a_subspace_needs_dimension_zero(self, rows):
        with pytest.raises(RangeError, match="not a single point"):
            Subspace(3, rows).point()


class TestCoordsOf:
    def test_coordinates_in_the_canonical_basis(self):
        plane = Subspace(3, [[1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 1]])
        p = ProjPoint([2, 3, 5, 6])
        coords = plane.coords_of(p)
        vec = [sum(c * row[k] for c, row in zip(coords, plane.basis)) for k in range(4)]
        assert vec == list(p.coords)
        assert Subspace(3, [[1, 1, 0, 0]]).coords_of(ProjPoint([3, 3, 0, 0])) == (1,)

    def test_point_off_the_subspace_raises(self):
        with pytest.raises(RangeError):
            Subspace(2, [[1, 0, 0], [0, 1, 0]]).coords_of(ProjPoint([0, 0, 1]))

    def test_empty_subspace_contains_no_point(self):
        with pytest.raises(RangeError):
            Subspace(2, []).coords_of(ProjPoint([1, 0, 0]))


class TestRationalInput:
    """Every constructor takes ints and Fractions, and nothing else."""

    def test_rational_rows_span_the_same_subspace_as_scaled_int_rows(self):
        rng = random.Random(19)
        for _ in range(100):
            n, k = rng.randint(1, 8), rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 2**70)))
                     for _ in range(n + 1)] for _ in range(k)]
            # each row times its own nonzero multiple of every denominator
            mults = [rng.choice((-1, 1)) * rng.randint(1, 5) * 42 * 2**70 for _ in rows]
            scaled = [[int(x * m) for x in row] for row, m in zip(rows, mults)]
            assert Subspace(n, rows) == Subspace(n, scaled)
            assert all(type(x) is int for r in Subspace(n, rows).basis for x in r)

    def test_plucker_point_from_fractions(self):
        line = Subspace(3, [[1, 2, 0, 3], [0, 1, 5, -1]])
        coords = plucker(line).coords
        assert PluckerPoint([Fraction(x, 6) for x in coords]) == plucker(line)
        assert PluckerPoint([Fraction(-x, 4) for x in coords]).coords == coords

    @pytest.mark.parametrize("build", [
        lambda x: ProjPoint([1, x, 0]),
        lambda x: Subspace(2, [[1, 0, 0], [0, x, 1]]),
        lambda x: QuadricForm([[1, x], [x, 0]]),
        lambda x: PluckerPoint([1, x, 0, 0, 0, 0]),
    ], ids=["ProjPoint", "Subspace", "QuadricForm", "PluckerPoint"])
    def test_float_entries_rejected(self, build):
        with pytest.raises(TypeError, match="0.5"):
            build(0.5)
        build(Fraction(1, 2))  # the same value as a Fraction is fine


class TestSpan:
    def test_three_coordinate_points_of_p4(self):
        s = span([e(0, 5), e(2, 5), e(4, 5)], 4)
        assert s.dim == 2

    def test_proportional_points_give_dim_zero(self):
        s = span([ProjPoint([1, 2, 3]), ProjPoint([2, 4, 6])], 2)
        assert s.dim == 0

    def test_random_four_points_in_p5_against_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            pts = [random_point(rng, 6) for _ in range(4)]
            s = span(pts, 5)
            assert s.dim == frac_rank([p.coords for p in pts]) - 1

    def test_empty_input_gives_empty_subspace(self):
        s = span([], 3)
        assert s.dim == -1

    def test_dimension_mismatch(self):
        with pytest.raises(RangeError):
            span([e(0, 3), e(0, 4)], 2)


class TestMeet:
    def test_two_planes_in_p3_meet_in_line(self):
        a = Subspace(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        b = Subspace(3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert meet(a, b).dim == 1

    def test_generic_planes_in_p5_disjoint(self):
        rng = random.Random(12)
        for _ in range(10):
            a = span([random_point(rng, 6) for _ in range(3)], 5)
            b = span([random_point(rng, 6) for _ in range(3)], 5)
            if a.dim == b.dim == 2:
                got = meet(a, b)
                expect = (
                    frac_rank(list(a.basis)) + frac_rank(list(b.basis))
                    - frac_rank(list(a.basis) + list(b.basis))
                )
                assert len(got.basis) == expect

    def test_plane_meets_itself(self):
        a = span([e(0, 6), e(1, 6), e(2, 6)], 5)
        assert meet(a, a) == a

    def test_grassmann_identity_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(3, 6)
            a = span([random_point(rng, n + 1, 5) for _ in range(rng.randint(1, 3))], n)
            b = span([random_point(rng, n + 1, 5) for _ in range(rng.randint(1, 3))], n)
            u = span_subspaces([a, b], n)
            assert a.dim + b.dim == meet(a, b).dim + u.dim


def oracle_meet(a, b):
    return Subspace(
        a.ambient_dim, frac_meet(list(a.basis), list(b.basis), a.ambient_dim + 1)
    )


def assert_meet_exact(a, b):
    got = meet(a, b)
    assert got == oracle_meet(a, b)
    assert meet(b, a) == got


@st.composite
def sparse_pairs(draw):
    """(relation, a, b): two subspaces of P^6..P^22 on drawn supports.

    The relation says how the supports lie: disjoint, sharing one
    coordinate, b's nested in a's, or a dense and b's anywhere.  Half the
    draws use the even coordinates only, so the odd coordinates between
    support coordinates are zero on both sides.  Each side is, at even
    odds, the coordinate subspace on its support or the span of up to four
    vectors; the first of those is nonzero on all of the support, so the
    support of the subspace is exactly the one drawn.
    """
    n = draw(st.integers(6, 22))
    pool = draw(st.sampled_from([range(n + 1), range(0, n + 1, 2)]))
    relation = draw(st.sampled_from(["disjoint", "one shared", "nested", "dense"]))
    if relation == "dense":
        sa = set(pool)
    else:
        sa = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool) - 1))
    if relation in ("nested", "dense"):
        sb = draw(st.sets(st.sampled_from(sorted(sa)), min_size=1))
    else:
        rest = sorted(set(pool) - sa)
        sb = draw(st.sets(st.sampled_from(rest), min_size=relation == "disjoint"))
        if relation == "one shared":
            sb.add(draw(st.sampled_from(sorted(sa))))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))

    def side(support):
        if draw(st.booleans()):  # the coordinate subspace on the support
            return Subspace(n, [e(c, n + 1).coords for c in support])
        rows = []
        for k in range(draw(st.integers(1, min(4, len(support))))):
            row = [0] * (n + 1)
            for c in support:
                row[c] = draw(entry.filter(bool) if k == 0 else entry)
            rows.append(row)
        return Subspace(n, rows)

    return relation, side(sa), side(sb)


HUGE = st.one_of(st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))
ENTRY = st.one_of(st.integers(-3, 3), HUGE)


@st.composite
def plane_pairs(draw):
    """(shared, a, b): two planes of P^5..P^22 spanned by `shared` common
    points and 3 - shared points of their own, so that they are disjoint
    (shared = 0; generic planes of P^5 and up do not meet), meet in a point
    or meet in a line.  Points have small entries or entries above 2^64."""
    n = draw(st.integers(5, 22))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    shared = draw(st.integers(0, 2))
    common = [draw(point) for _ in range(shared)]
    a = Subspace(n, common + [draw(point) for _ in range(3 - shared)])
    b = Subspace(n, common + [draw(point) for _ in range(3 - shared)])
    return shared, a, b


@st.composite
def small_columns(draw):
    """The nonzero columns, 0 <= k <= 20 of them, of a 3-row integer
    matrix: integer combinations of up to three drawn columns, so of rank
    0 to 3 and often multiples of each other."""
    entries = st.tuples(ENTRY, ENTRY, ENTRY)
    gens = draw(st.lists(entries, min_size=1, max_size=3))
    cols = []
    for _ in range(draw(st.integers(0, 20))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        col = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3))
        if any(col):
            cols.append(col)
    return cols


def read_up_to(cols):
    """The columns, then an error if they are read any further."""
    yield from cols
    raise AssertionError("read past the column that proves full rank")


def assert_small_kernel(cols):
    """_small_kernel against linalg.rank and the row span of
    linalg.nullspace, which it takes itself only when no column is given;
    a kernel of more than one vector is that nullspace's rref.  At rank 3
    the columns are fed only up to the first that proves it."""
    rows = [list(col) for col in cols]
    rank = linalg.rank(rows) if rows else 0
    kernel = linalg.nullspace(rows, ncols=3)
    if rank == 3:
        stop = next(j for j in range(1, len(rows) + 1) if linalg.rank(rows[:j]) == 3)
        cols = read_up_to(cols[:stop])
    with spy(linalg.nullspace) as counted:
        got = _small_kernel(cols)
    assert len(counted) == (rank == 0)
    assert len(got) == 3 - rank
    if got:
        assert Subspace(2, got) == Subspace(2, kernel)
    if len(got) > 1:
        assert tuple(got) == linalg.rref(kernel)
    return rank


class TestSmallKernel:
    """The rank and kernel that meet reads off cross products."""

    @settings(max_examples=300)
    @given(small_columns())
    def test_against_rank_and_nullspace(self, cols):
        assert_small_kernel(cols)

    @settings(max_examples=100)
    @given(
        st.tuples(ENTRY, ENTRY, ENTRY).filter(any),
        st.lists(st.integers(-5, 5).filter(bool), max_size=18),
        st.tuples(ENTRY, ENTRY, ENTRY).filter(any),
    )
    def test_zero_cross_product_up_to_the_last_column(self, first, multiples, last):
        cols = [first] + [tuple(m * x for x in first) for m in multiples] + [last]
        assert assert_small_kernel(cols) in (1, 2)

    @pytest.mark.parametrize(
        "cols, rank",
        [
            ([], 0),
            ([(2**65, 0, -3)], 1),
            ([(1, 2, 3), (-2, -4, -6), (3, 6, 9)], 1),
            ([(1, 0, 0), (2, 0, 0), (0, 1, 0)], 2),
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (5, -7, 0)], 2),
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3),
            ([(2**64 + 1, 3, 0), (0, 2**66, 1), (2**64 + 1, 3 + 2**66, 1), (1, 1, 1)], 3),
            ([(2**64 + 1, 3, 0), (0, 2**66, 1), (2**64 + 1, 3 + 2**66, 1)], 2),
        ],
    )
    def test_ranks_0_to_3(self, cols, rank):
        assert assert_small_kernel(cols) == rank

    def test_full_rank_stops_at_the_column_that_proves_it(self):
        """A disjoint pair is decided without reading the columns after the
        one that proves rank 3."""
        cols = [(1, 2, 3), (2, 4, 6), (0, 1, 0), (1, 3, 3), (0, 0, 1), (1, 1, 1)]
        stop = next(j for j in range(1, len(cols) + 1)
                    if linalg.rank([list(c) for c in cols[:j]]) == 3)
        assert stop < len(cols)
        assert _small_kernel(read_up_to(cols[:stop])) == []


@st.composite
def int_rows(draw):
    """(n, rows): up to five rows of P^n, 1 <= n <= 8, each a drawn row
    with small entries or entries past 2^64 times a multiplier of -6 to 6:
    rows of content above 1, leading entries of either sign, and zero rows."""
    n = draw(st.integers(1, 8))
    row = st.lists(ENTRY, min_size=n + 1, max_size=n + 1)
    multipliers = draw(st.lists(st.integers(-6, 6), max_size=5))
    return n, [[k * x for x in draw(row)] for k in multipliers]


class TestIntRowsGoStraightToTheKernel:
    """A Subspace of int rows is reduced once, by the kernel's rref, and is
    the Subspace of the same rows written as Fractions."""

    @settings(max_examples=100)
    @given(int_rows(), st.integers(1, 7))
    def test_int_rows_equal_fraction_rows(self, data, den):
        n, rows = data
        with spy(linalg.clear_denominators) as cleared:
            s = Subspace(n, rows)
        assert cleared == []
        assert s == Subspace(n, [[Fraction(x) for x in r] for r in rows])
        assert s == Subspace(n, [[Fraction(x, den) for x in r] for r in rows])
        assert all(type(x) is int for r in s.basis for x in r)
        ref = frac_rref(rows)
        assert len(s.basis) == len(ref)
        for got, want in zip(s.basis, ref):
            lead = next(x for x in got if x)
            assert lead > 0 and [Fraction(x, lead) for x in got] == want

    @settings(max_examples=50)
    @given(int_rows(), st.data())
    def test_bools_are_cleared_like_fractions(self, drawn, data):
        n, rows = drawn
        assume(rows)
        # some entries of 0 or 1 written as bools
        flagged = [[bool(x) if x in (0, 1) and data.draw(st.booleans()) else x for x in r]
                   for r in rows]
        assume(any(type(x) is bool for r in flagged for x in r))
        with spy(linalg.clear_denominators) as cleared:
            s = Subspace(n, flagged)
        assert len(cleared) == len(rows)
        assert s == Subspace(n, rows)
        assert all(type(x) is int for r in s.basis for x in r)


@st.composite
def line_meet_planes(draw):
    """(a, b): two planes of P^3..P^12 through two common points, with one
    own point each, so that a generic pair meets in the line of the two."""
    n = draw(st.integers(3, 12))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    common = [draw(point) for _ in range(2)]
    return Subspace(n, common + [draw(point)]), Subspace(n, common + [draw(point)])


@st.composite
def nested_pairs(draw):
    """(a, b): a the span of three to five points of P^4..P^12, and b the
    span of two or three integer combinations of them, so b lies in a."""
    n = draw(st.integers(4, 12))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    pts = [draw(point) for _ in range(draw(st.integers(3, 5)))]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(pts), max_size=len(pts))
    rows = [[sum(c * p[i] for c, p in zip(cs, pts)) for i in range(n + 1)]
            for cs in draw(st.lists(coeffs, min_size=2, max_size=3))]
    return Subspace(n, pts), Subspace(n, rows)


@st.composite
def solid_pairs(draw):
    """(a, b): two 3-spaces of P^5..P^8 through two or three common points,
    with the rest of their four points their own: a generic pair meets in
    a line or a plane, through the nullspace of four-row columns."""
    n = draw(st.integers(5, 8))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    common = [draw(point) for _ in range(draw(st.integers(2, 3)))]
    own = 4 - len(common)
    a = Subspace(n, common + [draw(point) for _ in range(own)])
    return a, Subspace(n, common + [draw(point) for _ in range(own)])


def assert_wide_kernel_meet(a, b):
    """meet(a, b) is a line or a plane, so its kernel has two or three
    vectors, and it matches the oracle, in both orders, with a basis that
    is its own rref."""
    got = meet(a, b)
    assume(got.dim in (1, 2))
    assert got == oracle_meet(a, b) and meet(b, a) == got
    assert got.basis == linalg.rref(got.basis)


@st.composite
def exact_pairs(draw):
    """(a, b): a pair of the kinds that TestMeetExact meets, in P^3..P^22:
    spans of one to four points (small entries or past 2^64), spans through
    one or two common points, a span and the span of some of its points, a
    span and itself, a span and the empty subspace, and two coordinate
    subspaces."""
    n = draw(st.integers(3, 22))
    kind = draw(st.sampled_from(
        ["random", "shared rows", "nested", "identical", "empty", "coordinate"]))
    if kind == "coordinate":
        coords = st.sets(st.integers(0, n), min_size=1, max_size=4)
        return coordinate_subspace(n, draw(coords)), coordinate_subspace(n, draw(coords))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    pts = [draw(point) for _ in range(draw(st.integers(1, 4)))]
    a = Subspace(n, pts)
    if kind == "identical":
        return a, a
    if kind == "empty":
        return a, Subspace(n)
    if kind == "nested":
        return a, Subspace(n, pts[: draw(st.integers(1, len(pts)))])
    common = pts[: draw(st.integers(1, 2))] if kind == "shared rows" else []
    own = [draw(point) for _ in range(draw(st.integers(int(not common), 4 - len(common))))]
    return a, Subspace(n, common + own)


class TestMeetDim:
    """meet_dim is the dimension of meet, read off the same reduction."""

    @settings(max_examples=150)
    @given(st.one_of(exact_pairs(), sparse_pairs().map(lambda pair: pair[1:])))
    def test_dimension_of_meet_on_the_exact_pairs(self, pair):
        a, b = pair
        assert meet_dim(a, b) == meet_dim(b, a) == meet(a, b).dim

    @pytest.mark.parametrize(
        "build, d, g, seed",
        [("X", 12, 4, 0), ("Y", 9, 2, 1), ("Z", 11, 3, 2)],
    )
    def test_planes_double_lines_and_spans_of_constructions(self, build, d, g, seed):
        """Every pair among a build's planes, double lines and attachment
        3-spaces, which are what the quadric attachment meets."""
        from zappatic.constructions import build_X, build_Y, build_Z

        res = {"X": build_X, "Y": build_Y, "Z": build_Z}[build](d, g, seed)
        parts = [*res.arrangement.planes,
                 *(line for _, _, line in res.incidence.double_lines),
                 *(rec.span_pi for rec in res.attachments)]
        dims = set()
        for a, b in combinations(parts, 2):
            dim = meet_dim(a, b)
            assert dim == meet(a, b).dim
            dims.add(dim)
        assert dims == {-1, 0, 1, 2}


class TestMeetExact:
    """meet returns exactly the canonical basis of the left-kernel oracle."""

    def test_random_pairs_p3_to_p22(self):
        rng = random.Random(14)
        for _ in range(80):
            n = rng.randint(3, 22)
            h = rng.choice([1, 5, 2**70])
            a = span([random_point(rng, n + 1, h) for _ in range(rng.randint(1, 4))], n)
            b = span([random_point(rng, n + 1, h) for _ in range(rng.randint(1, 4))], n)
            assert_meet_exact(a, b)

    def test_shared_rows(self):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(3, 22)
            common = [random_point(rng, n + 1) for _ in range(rng.randint(1, 2))]
            a = span(common + [random_point(rng, n + 1) for _ in range(rng.randint(0, 2))], n)
            b = span(common + [random_point(rng, n + 1) for _ in range(rng.randint(0, 2))], n)
            assert meet(a, b).contains(span(common, n))
            assert_meet_exact(a, b)

    def test_nested_identical_and_empty(self):
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randint(3, 22)
            pts = [random_point(rng, n + 1) for _ in range(rng.randint(1, 4))]
            big = span(pts, n)
            small = span(pts[: rng.randint(1, len(pts))], n)
            empty = Subspace(n)
            assert meet(big, small) == small
            assert meet(big, big) == big
            assert meet(big, empty).dim == -1 and meet(empty, big).dim == -1
            for a, b in ((big, small), (big, big), (big, empty), (empty, empty)):
                assert_meet_exact(a, b)

    def test_coordinate_subspaces(self):
        for n in (4, 9, 22):
            a = span([e(i, n + 1) for i in range(0, 4)], n)
            b = span([e(i, n + 1) for i in range(2, 5)], n)
            assert meet(a, b) == span([e(2, n + 1), e(3, n + 1)], n)
            assert_meet_exact(a, b)

    @settings(max_examples=120)
    @given(sparse_pairs())
    def test_sparse_pairs_p6_to_p22(self, pair):
        relation, a, b = pair
        if relation == "disjoint":
            assert a.support.isdisjoint(b.support) and meet(a, b).dim == -1
        elif relation == "one shared":
            assert len(a.support & b.support) == 1
        assert_meet_exact(a, b)

    @settings(max_examples=50)  # the oracle takes about 0.1 s a pair in P^22
    @given(plane_pairs())
    def test_plane_pairs_p5_to_p22(self, pair):
        shared, a, b = pair
        assume(a.dim == b.dim == 2)
        got = meet(a, b)
        assert got.dim >= shared - 1
        assert_meet_exact(a, b)

    @settings(max_examples=50)
    @given(line_meet_planes())
    def test_line_meets_of_planes(self, pair):
        assert_wide_kernel_meet(*pair)

    @settings(max_examples=40)
    @given(nested_pairs())
    def test_b_inside_a(self, pair):
        a, b = pair
        assert meet(a, b) == b
        assert_wide_kernel_meet(a, b)

    @settings(max_examples=50)
    @given(solid_pairs())
    def test_3_spaces_of_p5_to_p8(self, pair):
        a, b = pair
        assume(a.dim == b.dim == 3)
        assert_wide_kernel_meet(a, b)

    @pytest.mark.parametrize(
        "build, d, g, seed",
        [("X", 12, 4, 0), ("Y", 9, 2, 1), ("Z", 11, 3, 2)],
    )
    def test_planes_and_double_lines_of_constructions(self, build, d, g, seed):
        from zappatic.constructions import build_X, build_Y, build_Z

        res = {"X": build_X, "Y": build_Y, "Z": build_Z}[build](d, g, seed)
        planes = res.arrangement.planes
        lines = [line for _, _, line in res.incidence.double_lines]
        for group in (planes, lines):
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert_meet_exact(group[i], group[j])


@st.composite
def subspaces(draw, n=None):
    """(n, s): a subspace of P^n, 1 <= n <= 8 unless n is given, of a drawn
    kind: the span of up to four rows of ints (small or past 2^64), of
    Fractions or of bools, each zero off a drawn support; a coordinate
    subspace; the empty subspace; or the whole space."""
    if n is None:
        n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["int", "fraction", "bool", "coordinate", "empty", "whole"]))
    if kind == "empty":
        return n, Subspace(n)
    if kind == "whole":
        return n, Subspace(n, [e(c, n + 1).coords for c in range(n + 1)])
    support = draw(st.sets(st.integers(0, n), min_size=1))
    if kind == "coordinate":
        return n, coordinate_subspace(n, support)
    entry = {
        "int": ENTRY,
        "fraction": st.builds(Fraction, ENTRY, st.integers(1, 7)),
        "bool": st.booleans(),
    }[kind]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [0] * (n + 1)
        for c in support:
            row[c] = draw(entry)
        rows.append(row)
    return n, Subspace(n, rows)


def nudged_combinations(data, s, n, k):
    """k integer combinations of s's basis rows, each, at even odds, with a
    nonzero entry added at one coordinate, on s's support or off it."""
    rows = []
    for _ in range(k):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(s.basis),
                                    max_size=len(s.basis)))
        row = [sum(c * b[i] for c, b in zip(coeffs, s.basis)) for i in range(n + 1)]
        if data.draw(st.booleans()):
            row[data.draw(st.integers(0, n))] += data.draw(ENTRY.filter(bool))
        rows.append(row)
    return rows


class TestEquations:
    """A subspace's equations against the Fraction oracle, and the
    containment tests that reduce against them against Bareiss ranks."""

    @settings(max_examples=200)
    @given(subspaces())
    def test_equations_vanish_on_the_basis(self, drawn):
        n, s = drawn
        assert len(s.equations) == len(s.support) - len(s.basis)
        dense = []
        for get, f in s.equations:
            cols = get(range(n + 1))  # the coordinates that the form reads
            assert len(cols) == len(f) >= 2 and all(f) and set(cols) <= s.support
            assert all(sum(map(mul, f, get(row))) == 0 for row in s.basis)
            row = [0] * (n + 1)
            for c, x in zip(cols, f):
                row[c] = x
            dense.append(row)
        # independent, so they cut out exactly the row span on the support
        assert frac_rank(dense) == len(dense)

    @settings(max_examples=300)
    @given(subspaces(), st.data())
    def test_contains_point_agrees_with_bareiss_rank(self, drawn, data):
        n, s = drawn
        (y,) = nudged_combinations(data, s, n, 1)
        if not any(y):
            y = data.draw(st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any))
        p = ProjPoint(y)
        assert s.contains_point(p) == bareiss_contains(s.basis, [p.coords])

    @settings(max_examples=300)
    @given(subspaces(), st.data())
    def test_contains_agrees_with_bareiss_rank(self, drawn, data):
        n, s = drawn
        if data.draw(st.booleans()):
            _, t = data.draw(subspaces(n))
        else:
            t = Subspace(n, nudged_combinations(data, s, n, data.draw(st.integers(0, 3))))
        assert s.contains(t) == bareiss_contains(s.basis, t.basis)

    @pytest.mark.parametrize(
        "rows, point, inside",
        [
            ([[1, 1, 0]], [1, 1, 1], False),  # on the equations, off the support
            ([[1, 1, 0]], [2, 2, 0], True),
            ([[1, 0, 2, 0], [0, 1, 3, 0]], [1, 1, 5, 0], True),
            ([[1, 0, 2, 0], [0, 1, 3, 0]], [1, 1, 5, 2**70], False),
            ([[1, 0, 2, 0], [0, 1, 3, 0]], [1, 1, 4, 0], False),
            ([], [0, 0, 1], False),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [2**65, -3, 1], True),
        ],
    )
    def test_contains_point_examples(self, rows, point, inside):
        s = Subspace(len(point) - 1, rows)
        assert s.contains_point(ProjPoint(point)) is inside
        assert s.contains(span([ProjPoint(point)], s.ambient_dim)) is inside

    def test_equations_are_not_part_of_the_value(self):
        s = Subspace(4, [[1, 2, 0, 3, 0], [0, 1, 1, 0, 0]])
        t = Subspace(4, [[1, 2, 0, 3, 0], [0, 1, 1, 0, 0]])
        before = (repr(s), hash(s))
        assert len(s.equations) == 2 and "equations" not in t.__dict__
        assert s == t and (repr(s), hash(s)) == before and hash(t) == before[1]


@st.composite
def closed_form_line_meets(draw):
    """(case, a, b): two planes of P^3..P^12 whose meet is a line, with a's
    equations reducing b's rows to multiples of one column (x, y, z) in the
    drawn case of _small_kernel: z != 0, z = 0 with y != 0, or only x != 0.
    The line is spanned by two combinations of b's canonical rows that are
    orthogonal to (x, y, z), and a by the line and a point of its own."""
    n = draw(st.integers(3, 12))
    point = st.lists(ENTRY, min_size=n + 1, max_size=n + 1).filter(any)
    b = Subspace(n, [draw(point) for _ in range(3)])
    assume(b.dim == 2)
    case = draw(st.sampled_from(["z", "y", "x"]))
    if case == "z":
        x, y, z = draw(ENTRY), draw(ENTRY), draw(ENTRY.filter(bool))
        combos = [(z, 0, -x), (0, z, -y)]
    elif case == "y":
        x, y = draw(ENTRY), draw(ENTRY.filter(bool))
        combos = [(y, -x, 0), (0, 0, 1)]
    else:
        combos = [(0, 1, 0), (0, 0, 1)]
    line = [[sum(map(mul, v, col)) for col in zip(*b.basis)] for v in combos]
    return case, Subspace(n, line + [draw(point)]), b


class TestClosedFormLineMeets:
    """A meet of two planes in a line writes its kernel down."""

    @settings(max_examples=90)
    @given(closed_form_line_meets())
    def test_each_case_against_the_oracle(self, drawn):
        case, a, b = drawn
        assume(a.dim == 2 and a != b)
        x, y, z = next(_reduced_columns(a, b))
        assert {"z": z != 0, "y": z == 0 and y != 0, "x": y == z == 0}[case]
        got = meet(a, b)
        assert got.dim == 1
        assert_meet_exact(a, b)

    @pytest.mark.parametrize(
        "first",
        [(2, 3, -4), (-6, 0, 9), (0, 0, -(2**65)), (5, -(2**64) - 1, 0), (0, -7, 0),
         (-3, 0, 0), (2**66, 0, 0), (4, 6, 8)],
    )
    def test_complement_is_the_rref_of_the_kernel(self, first):
        cols = [first, tuple(-3 * v for v in first)]
        got = _small_kernel(cols)
        ref = frac_rref(frac_nullspace([list(first)]))
        assert len(got) == len(ref) == 2
        for row, want in zip(got, ref):
            lead = next(v for v in row if v)
            assert lead > 0 and linalg.primitive(row) == row
            assert [Fraction(v, lead) for v in row] == want


class TestEquationCalls:
    """What the equations cost in kernel calls."""

    @settings(max_examples=50)
    @given(line_meet_planes())
    def test_line_meet_of_planes_with_equations_takes_no_kernel(self, pair):
        a, b = pair
        assume(a.dim == b.dim == 2 and meet(a, b).dim == 1)
        a.equations, b.equations  # read once, and kept
        with spy(linalg.nullspace, linalg.rref) as calls:
            assert meet(a, b).dim == meet(b, a).dim == 1
        assert calls == []

    def test_equations_cost_one_nullspace_however_many_meets(self):
        """A plane of P^7 met with seven others, disjoint from it or through
        one or two of its rows, in both orders, and tested for containing
        each, reduces its rows on its support once."""
        rng = random.Random(31)
        n = 7
        a = span([random_point(rng, n + 1) for _ in range(3)], n)
        own = [[row[c] for c in sorted(a.support)] for row in a.basis]
        others = [span([ProjPoint(row) for row in a.basis[:k]]
                       + [random_point(rng, n + 1) for _ in range(3 - k)], n)
                  for k in (0, 0, 0, 1, 1, 2, 2)]
        with spy(linalg.nullspace) as ns:
            for b in others:
                assert meet(a, b) == meet(b, a) == oracle_meet(a, b)
                assert not a.contains(b)
        assert [c.args[0] for c in ns].count(own) == 1

    @pytest.mark.parametrize("coords", [(0, 2, 3), (1,), range(9), (4, 5, 6, 7)])
    def test_a_coordinate_subspace_costs_none(self, coords):
        n = 8
        rng = random.Random(32)
        dense = span([random_point(rng, n + 1) for _ in range(len(coords))], n)
        with spy(linalg.nullspace) as ns:
            for s in (coordinate_subspace(n, coords), Subspace(n, [e(c, n + 1).coords for c in coords])):
                assert s.support == frozenset(coords)
                assert s.equations == ()
                assert s.contains_point(e(coords[0], n + 1))
                assert s.contains(span([e(c, n + 1) for c in coords], n))
        assert ns == []
        assert_meet_exact(coordinate_subspace(n, coords), dense)


class TestQuadricForm:
    def test_matrix_is_primitive_and_integral(self):
        assert QuadricForm([[2, 4], [4, 6]]).matrix == ((1, 2), (2, 3))
        assert QuadricForm([[-2, 0], [0, 4]]).matrix == ((1, 0), (0, -2))
        half = QuadricForm([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
        assert half.matrix == ((3, 2), (2, 6))
        assert repr(QuadricForm([[True, False], [False, 0]])) == "QuadricForm(matrix=((1, 0), (0, 0)))"

    def test_bad_matrices_rejected(self):
        for m, message in (
            ([[1, 2], [3, 1]], "symmetric"),
            ([[1, Fraction(1, 2)], [Fraction(1, 3), 1]], "symmetric"),
            ([[1, 0, 0], [0, 1, 0]], "square"),
            ([[0, 0], [0, 0]], "nonzero"),
        ):
            with pytest.raises(RangeError, match=message):
                QuadricForm(m)


class TestQuadricRank:
    def test_klein_form_has_rank_6(self):
        assert quadric_rank(klein_form()) == 6

    def test_x0x1_on_p3_has_rank_2(self):
        m = [[0] * 4 for _ in range(4)]
        m[0][1] = m[1][0] = 1
        assert quadric_rank(QuadricForm(m)) == 2

    def test_twisted_cubic_system_members_have_rank_3_or_4(self):
        samples = [rnc_point(t, 3) for t in (0, 1, -1, 2, -2, 3, -3, 4)]
        dim, basis = quadrics_through(samples, [], 3)
        assert dim == 2
        rng = random.Random(14)
        for _ in range(20):
            coeff = [rng.randint(-5, 5) for _ in basis]
            mat = [[0] * 4 for _ in range(4)]
            for c, q in zip(coeff, basis):
                for i in range(4):
                    for j in range(4):
                        mat[i][j] += c * q.matrix[i][j]
            if any(any(r) for r in mat):
                assert quadric_rank(QuadricForm(mat)) in (3, 4)

    def test_rank_invariant_under_congruence(self):
        rng = random.Random(15)
        q = klein_form()
        done = 0
        while done < 20:
            m = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
            if linalg.rank(m) < 6:
                continue
            assert quadric_rank(q.congruent(m)) == 6
            done += 1


class TestQuadricsThrough:
    def test_twisted_cubic_three_quadrics(self):
        samples = [rnc_point(t, 3) for t in (0, 1, -1, 2, -2, 3, -3, 4)]
        dim, basis = quadrics_through(samples, [], 3)
        assert (dim, len(basis)) == (2, 3)
        for q in basis:
            for p in samples:
                assert q.evaluate(p) == 0
            assert q.evaluate(rnc_point(7, 3)) == 0  # vanishes on the whole curve

    def test_twisted_cubic_with_forced_codim3_subspace(self):
        # codimension 3 in P^3 is a point
        samples = [rnc_point(t, 3) for t in (0, 1, -1, 2, -2, 3, -3, 4)]
        forced = [Subspace(3, [[1, 2, -1, 3]])]
        dim, basis = quadrics_through(samples, forced, 3)
        assert (dim, len(basis)) == (1, 2)  # d - 2g - 1 = 2

    def test_empty_samples_in_p2(self):
        dim, basis = quadrics_through([], [], 2)
        assert (dim, len(basis)) == (5, 6)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_rational_normal_curve_count(self, d):
        from math import comb

        samples = [rnc_point(t, d) for t in range(-(d + 1), d + 1)]
        assert len(samples) == 2 * d + 2
        dim, basis = quadrics_through(samples, [], d)
        assert len(basis) == comb(d + 2, 2) - (2 * d + 1)

    def test_forced_subspace_containment(self):
        line = Subspace(3, [[1, 0, 0, 1], [0, 1, -1, 0]])
        dim, basis = quadrics_through([], [line], 3)
        # quadrics on P^3 form a 10-dim space; a line imposes 3 conditions
        assert len(basis) == 7
        for q in basis:
            u, v = line.basis
            assert q.bilinear(u, u) == 0
            assert q.bilinear(v, v) == 0
            assert q.bilinear(u, v) == 0


class TestPlucker:
    def test_coordinate_lines(self):
        l01 = Subspace(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert plucker(l01).coords == (1, 0, 0, 0, 0, 0)
        l23 = Subspace(3, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert plucker(l23).coords == (0, 0, 0, 0, 0, 1)

    def test_klein_relation_on_100_random_lines(self):
        rng = random.Random(16)
        done = 0
        while done < 100:
            a, b = random_point(rng, 4), random_point(rng, 4)
            line = span([a, b], 3)
            if line.dim != 1:
                continue
            assert klein_value(plucker(line).coords) == 0
            done += 1

    def test_rejects_non_lines(self):
        with pytest.raises(RangeError):
            plucker(span([e(0, 4), e(1, 4), e(2, 4)], 3))

    def test_plucker_point_validates_klein(self):
        with pytest.raises(ValueError):
            PluckerPoint([1, 0, 0, 0, 0, 1])


class TestDualPlane:
    def test_coordinate_plane(self):
        pi = Subspace(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        dual = dual_plane_in_klein(pi)
        assert dual.dim == 2
        # spanned by the images of the three coordinate-axis lines of pi
        for v in ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)):
            assert dual.contains_point(ProjPoint(v))

    def test_dual_plane_lies_on_klein_quadric(self):
        rng = random.Random(17)
        k = klein_form()
        done = 0
        while done < 20:
            pts = [random_point(rng, 4) for _ in range(3)]
            pi = span(pts, 3)
            if pi.dim != 2:
                continue
            dual = dual_plane_in_klein(pi)
            b = dual.basis
            for i in range(3):
                for j in range(i, 3):
                    assert k.bilinear(b[i], b[j]) == 0
            done += 1

    def test_two_planes_dual_meet_in_common_line_image(self):
        rng = random.Random(18)
        done = 0
        while done < 10:
            p1 = span([random_point(rng, 4) for _ in range(3)], 3)
            p2 = span([random_point(rng, 4) for _ in range(3)], 3)
            if p1.dim != 2 or p2.dim != 2 or p1 == p2:
                continue
            common = meet(p1, p2)
            assert common.dim == 1  # two planes in P^3 share a line
            d1, d2 = dual_plane_in_klein(p1), dual_plane_in_klein(p2)
            inter = meet(d1, d2)
            assert inter.dim == 0
            assert inter.point() == ProjPoint(plucker(common).coords)
            done += 1
