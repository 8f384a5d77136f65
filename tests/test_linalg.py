import contextlib
import io
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic import _bareiss, cli, linalg, projective
from zappatic.errors import InternalCheckError
from zappatic.projective import PluckerPoint, ProjPoint, Subspace, plucker

from oracles import (
    bareiss_rank,
    bareiss_rref,
    frac_nullspace,
    frac_primitive,
    frac_rank,
    frac_rref,
)


def test_one_kernel_is_reported():
    assert linalg.backend_name() == "python"
    assert linalg.available_backends() == ("python",)
    linalg.set_backend("python")
    with pytest.raises(ValueError, match="unknown backend 'compiled'"):
        linalg.set_backend("compiled")
    # linalg's entry points wrap the kernel's rather than alias them: the
    # benchmark's tracer counts calls to the two layers separately
    assert linalg.rank is not _bareiss.rank
    assert linalg.rref is not _bareiss.rref


def random_matrix(rng, nr, nc, lo=-30, hi=30):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_rank_small_cases():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[2, 4], [1, 2]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


def test_rank_matches_fraction_oracle():
    rng = random.Random(1)
    for _ in range(150):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        m = random_matrix(rng, nr, nc)
        assert linalg.rank(m) == frac_rank(m)


def test_rref_is_scaled_fraction_rref():
    rng = random.Random(2)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ours = linalg.rref(m)
        ref = frac_rref(m)
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            # our primitive integer row must be a positive multiple of the
            # monic rational row
            piv = next(x for x in a if x)
            assert piv > 0
            assert [Fraction(x, piv) for x in a] == b


def test_rref_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 5, 6)
        r1 = linalg.rref(m)
        assert linalg.rref(list(map(list, r1))) == r1
        # row-shuffled input gives the same canonical form
        m2 = m[:]
        rng.shuffle(m2)
        assert linalg.rref(m2) == r1


def test_nullspace_annihilates():
    rng = random.Random(4)
    for _ in range(100):
        nr, nc = rng.randint(1, 10), rng.randint(1, 10)
        bound = rng.choice((30, 10**6, 10**20))
        m = random_matrix(rng, nr, nc, -bound, bound)
        if rng.random() < 0.5:  # sparse, so rows share free columns unevenly
            m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
        ns = linalg.nullspace(m)
        assert len(ns) == nc - linalg.rank(m)
        for v in ns:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert ns == tuple(frac_primitive(v) for v in frac_nullspace(m))


def test_nullspace_empty_matrix():
    assert linalg.nullspace([], ncols=3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_solve_consistent_and_inconsistent():
    a = [[1, 2], [3, 4]]
    x = linalg.solve(a, [5, 6])
    assert [x[0] + 2 * x[1], 3 * x[0] + 4 * x[1]] == [5, 6]
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    for rhs in ([5], [5, 6, 7]):
        with pytest.raises(ValueError, match="right-hand sides"):
            linalg.solve([[1, 2], [3, 4]], rhs)


def test_solve_with_no_equations():
    # a system with no equations is consistent, and has no unknowns to fix
    assert linalg.solve([], []) == []
    with pytest.raises(ValueError, match="right-hand sides"):
        linalg.solve([], [1, 2])


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_rref_consistency_property(m):
    assert linalg.rank(m) == len(linalg.rref(m)) == frac_rank(m)


KERNEL_CASES = {
    # every pivot and every combined row leads with a negative entry, and
    # the first pivot is -2
    "negative_leads": [[-2, 0, 0, 1], [-3, 3, 0, -4], [-4, 4, -4, 1]],
    # pivot 2 against 3 and 5: the row is scaled before the pivot row is taken
    "pivot_not_a_unit": [[2, 1, 0], [3, 0, 1], [5, 7, 11]],
    # the second row vanishes at the first pivot, the last two at the second
    "rows_vanish": [[1, 2, 3], [2, 4, 6], [1, 3, 5], [0, 1, 2], [3, 7, 11]],
    "zero": [[0, 0, 0], [0, 0, 0]],
    "content": [[4, 6, 8], [6, 9, 3], [-10, 0, 20]],
    "bools": [[True, False, True], [False, True, True], [True, True, False]],
}


@pytest.mark.parametrize("m", KERNEL_CASES.values(), ids=KERNEL_CASES)
def test_kernel_cases_match_fractions(m):
    ref = frac_rref(m)
    for rows in (m, [tuple(r) for r in m]):
        before = repr(rows)
        ours = linalg.rref(rows)
        assert linalg.rank(rows) == len(ours) == len(ref)
        for a, b in zip(ours, ref):
            piv = next(x for x in a if x)
            assert piv > 0 and [Fraction(x, piv) for x in a] == b
            assert all(type(x) is int for x in a)
        assert repr(rows) == before  # the input rows are read, not reduced


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 1.0])
def test_kernel_rejects_entries_that_are_not_ints(bad):
    for op in (linalg.rank, linalg.rref):
        with pytest.raises(TypeError):
            op([[1, 2], [3, bad]])


@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5]]])
def test_kernel_rejects_ragged_rows(m):
    for op in (linalg.rank, linalg.rref):
        with pytest.raises(ValueError, match="ragged"):
            op(m)


@pytest.mark.parametrize(
    "row,expected",
    [
        pytest.param((), (), id="empty"),
        pytest.param((0, 0, 0), (0, 0, 0), id="zero-row"),
        pytest.param((3, -5, 7), (3, -5, 7), id="already-primitive"),
        pytest.param([4, 6, -8], (2, 3, -4), id="content-above-one"),
        pytest.param((0, -6, 4, 10), (0, 3, -2, -5), id="negative-leading-entry"),
        pytest.param((0, -1, 0), (0, 1, 0), id="negative-unit"),
        pytest.param([True, False, True], (1, 0, 1), id="bools"),
        pytest.param((-2**100, 2**101, 0), (1, -2, 0), id="big-integers"),
    ],
)
def test_primitive_cases(row, expected):
    ours = linalg.primitive(row)
    assert ours == expected
    assert all(type(x) is int for x in ours)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 1.0])
def test_primitive_rejects_entries_that_are_not_ints(bad):
    with pytest.raises(TypeError):
        linalg.primitive([2, bad])


@given(st.lists(st.integers(-2**70, 2**70), max_size=9))
def test_primitive_matches_fractions(row):
    assert linalg.primitive(row) == frac_primitive(row)
    assert linalg.primitive(iter(row)) == frac_primitive(row)


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert linalg.clear_denominators([Fraction(-2), Fraction(4)]) == (1, -2)
    assert linalg.clear_denominators([]) == ()
    assert linalg.clear_denominators((0, Fraction(0), False)) == (0, 0, 0)
    assert linalg.clear_denominators([True, -2]) == (1, -2)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None])
def test_clear_denominators_rejects_entries_that_are_not_rationals(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        linalg.clear_denominators([1, Fraction(1, 3), bad])
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        linalg.clear_denominators(iter([1, Fraction(1, 3), bad]))


def test_clear_denominators_reads_an_iterator_once():
    assert linalg.clear_denominators(iter([Fraction(1, 2), 1])) == (1, 2)
    assert ProjPoint(x for x in [1, 2]) == ProjPoint([1, 2])
    line = Subspace(3, [[1, 2, 0, 3], [0, 1, 5, -1]])
    coords = plucker(line).coords
    assert PluckerPoint(iter(coords)) == plucker(line)


def rationals(bound):
    nums = st.integers(-bound, bound)
    return st.one_of(
        nums,
        st.booleans(),
        st.builds(Fraction, nums),  # integral Fractions
        st.builds(Fraction, nums, st.integers(1, bound)),
    )


@settings(max_examples=100)
@given(st.sampled_from((1, 9, 2**100)).flatmap(
    lambda bound: st.lists(st.one_of(st.just(0), rationals(bound)), max_size=9)))
def test_clear_denominators_matches_fractions(row):
    ours = linalg.clear_denominators(row)
    assert ours == frac_primitive(row)
    assert all(type(x) is int for x in ours)


def assert_pure_kernel_matches_references(m):
    """The pure kernel's rank and rref equal the Bareiss oracle's, and each
    rref row is the Fraction rref row scaled to a positive pivot."""
    ours = _bareiss.rref(m)
    assert ours == bareiss_rref(m)
    assert _bareiss.rank(m) == bareiss_rank(m) == len(ours)
    ref = frac_rref(m)
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        piv = next(x for x in a if x)
        assert piv > 0 and [Fraction(x, piv) for x in a] == b
        assert all(type(x) is int for x in a)
    # rows given as iterators, inside an iterator
    assert _bareiss.rref(iter([iter(r) for r in m])) == ours
    assert _bareiss.rank(iter([iter(r) for r in m])) == len(ours)


@st.composite
def hard_matrices(draw):
    """Tall or wide matrices that are products L R of rank k (possibly short
    of full), with entries up to 2**100, often half zero, with zero and
    repeated rows inserted and the rows shuffled."""
    nr, nc = draw(st.integers(1, 12)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(nr, nc)))
    bound = draw(st.sampled_from((1, 9, 2**31, 2**100)))
    sparse = draw(st.booleans())

    def factor(rows, cols):
        out = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                zero = sparse and draw(st.booleans())
                row.append(0 if zero else draw(st.integers(-bound, bound)))
            out.append(row)
        return out

    left, right = factor(nr, k), factor(k, nc)
    m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] or [0] * nc
         for row in left]
    for _ in range(draw(st.integers(0, 2))):
        m.append([0] * nc)
    for _ in range(draw(st.integers(0, 2))):
        m.append(list(m[draw(st.integers(0, len(m) - 1))]))
    return draw(st.permutations(m))


@settings(max_examples=300)
@given(hard_matrices())
def test_pure_kernel_matches_bareiss_and_fractions(m):
    assert_pure_kernel_matches_references(m)


@settings(max_examples=100)
@given(m=hard_matrices())
def test_nullspace_matches_fractions_on_hard_matrices(m):
    """Tall, rank-deficient, sparse and 100-bit matrices: the integer kernel
    basis is the primitive part of the Fraction one."""
    ns = linalg.nullspace(m)
    assert ns == tuple(frac_primitive(v) for v in frac_nullspace(m))
    assert len(ns) == len(m[0]) - linalg.rank(m)
    assert all(type(x) is int for v in ns for x in v)


def test_pure_kernel_on_tall_rank_deficient_big_products():
    rng = random.Random(6)
    for _ in range(20):
        nr, k, nc = rng.randint(10, 16), rng.randint(1, 4), rng.randint(5, 8)
        left = [[rng.randint(-(2**100), 2**100) for _ in range(k)] for _ in range(nr)]
        right = [[rng.choice((0, 0, rng.randint(-(2**100), 2**100))) for _ in range(nc)]
                 for _ in range(k)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        assert_pure_kernel_matches_references(m)
        assert _bareiss.rank(m) == frac_rank(right)


# The kernel works on arbitrary-precision ints, so the edges of int64 are not
# edges for it; these check that exactness does not fail there (ROADMAP aim 3):
# each value, or the products and sums that elimination forms from it, leaves
# [-(2^63 - 1), 2^63 - 1].
INT64_MIN = -(2**63)
INT64_EDGES = {
    "2**31": 2**31, "-2**31": -(2**31),
    "2**62-1": 2**62 - 1, "-(2**62-1)": -(2**62 - 1),
    "2**62": 2**62, "-2**62": -(2**62),
    "2**63-1": 2**63 - 1, "-(2**63-1)": -(2**63 - 1),
    "-2**63": INT64_MIN, "2**63": 2**63,
    "2**64": 2**64, "-2**64": -(2**64),
}


def around(e):
    """Small matrices with e in them: full rank, rank one, tall and wide."""
    return [
        [[e, 1, 0], [1, e, 1], [0, 1, e]],
        [[e, e], [e, e]],
        [[e, -1], [1, e], [e, e]],
        [[e, e - 1, 1], [e + 1, e, -1]],
        [[e, 0, e], [0, e, 0], [e, e, e]],
    ]


@pytest.mark.parametrize("e", INT64_EDGES.values(), ids=INT64_EDGES)
def test_rank_and_rref_at_an_int64_edge(e):
    for m in around(e):
        assert_pure_kernel_matches_references(m)
        assert linalg.rank(m) == frac_rank(m)
        assert linalg.rref(m) == _bareiss.rref(m)


@pytest.mark.parametrize("e", INT64_EDGES.values(), ids=INT64_EDGES)
def test_nullspace_and_solve_at_an_int64_edge(e):
    for m in around(e):
        assert linalg.nullspace(m) == tuple(frac_primitive(v) for v in frac_nullspace(m))
    a, rhs = [[e, 1], [1, e]], [e, 1]
    x = linalg.solve(a, rhs)
    assert [sum(c * v for c, v in zip(row, x)) for row in a] == rhs
    # two equal left-hand sides with different right-hand sides
    assert linalg.solve([[e, 1], [e, 1]], [e, e + 1]) is None


@pytest.mark.parametrize("e", INT64_EDGES.values(), ids=INT64_EDGES)
def test_sparse_rank_at_an_int64_edge(e):
    for m in around(e):
        cols = [{r: row[j] for r, row in enumerate(m)} for j in range(len(m[0]))]
        assert linalg.sparse_rank(cols) == frac_rank(m) == bareiss_rank(m)


def test_int64_min_rank():
    assert linalg.rank([[INT64_MIN, 0], [1, 2]]) == 2


def test_int64_min_rref():
    # the pivot comes back positive, so -INT64_MIN leaves int64
    assert linalg.rref([[INT64_MIN, 1]]) == ((2**63, -1),)
    assert linalg.rref([[INT64_MIN, 2]]) == ((2**62, -1),)
    assert linalg.rref([[INT64_MIN, 0], [1, 2]]) == ((1, 0), (0, 1))


def test_rows_that_are_not_lists():
    assert linalg.rank(iter([[1, 2], [2, 4]])) == 1
    assert linalg.rref([iter([2, 4])]) == ((1, 2),)
    assert linalg.rref((range(3), range(1, 4))) == ((1, 0, -1), (0, 1, 2))


def test_rank_and_rref_on_big_entries():
    rng = random.Random(5)
    big = [[rng.randint(-(10**25), 10**25) for _ in range(5)] for _ in range(5)]
    assert_pure_kernel_matches_references(big)
    assert linalg.rref(big) == _bareiss.rref(big)
    assert linalg.rank(big) == frac_rank(big)


@st.composite
def edge_matrices(draw):
    """Up to 5 x 4 matrices of int64 edges and small ints; about one in five
    has one row a column short or long."""
    entries = st.one_of(st.sampled_from((0, 1, -1, *INT64_EDGES.values())),
                        st.integers(-3, 3))
    ncols = draw(st.integers(0, 4))
    lengths = draw(st.lists(st.just(ncols), max_size=5))
    if lengths and draw(st.integers(0, 4)) == 0:
        lengths[draw(st.integers(0, len(lengths) - 1))] += draw(st.sampled_from((-1, 1)))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for n in lengths if n >= 0]


@settings(max_examples=400)
@given(edge_matrices())
def test_kernel_at_int64_edges_matches_references(m):
    if len({len(r) for r in m}) > 1:
        for op in (linalg.rank, linalg.rref):
            with pytest.raises(ValueError, match="ragged"):
                op(m)
    else:
        assert_pure_kernel_matches_references(m)
        assert linalg.rref(m) == _bareiss.rref(m)


@st.composite
def matrices_with_repeated_columns(draw):
    """Up to 6 rows whose columns repeat, negate or zero out a few base
    columns of small ints, in any order."""
    nr, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    base = [draw(st.lists(st.integers(-4, 4), min_size=nr, max_size=nr))
            for _ in range(k)]
    picks = draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1, 0))),
                          max_size=9))
    cols = [[s * x for x in base[j]] for j, s in picks]
    return [[col[i] for col in cols] for i in range(nr)]


@settings(max_examples=300)
@given(matrices_with_repeated_columns(), st.data())
def test_ranks_on_the_kernel_are_the_stacked_ranks(m, data):
    # a matrix with no rows keeps no column count: draw one
    cols = list(zip(*m)) if m else [()] * data.draw(st.integers(1, 3))
    row = st.lists(st.integers(-4, 4), min_size=len(cols), max_size=len(cols))
    # a 0/1 row per class of equal columns keeps the classes and makes the
    # distinct columns independent, negated and zero ones included
    classes = list(dict.fromkeys(cols))
    tagged = [*m, *([int(col == c) for col in cols] for c in classes)]
    for rows in (m, tagged):
        # rows in the row span of rows vanish on its kernel, so a lift off
        # the kernel adds rank
        combos = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(rows),
                                             max_size=len(rows)), max_size=3))
        extra = [[sum(c * r[k] for c, r in zip(cs, rows)) for k in range(len(cols))]
                 for cs in combos]
        extra += data.draw(st.lists(row, min_size=1, max_size=3))
        if bareiss_rank(rows) < len(classes):
            with pytest.raises(InternalCheckError, match="distinct columns"):
                cli._ranks_on_the_kernel(rows, extra)
        else:
            assert cli._ranks_on_the_kernel(rows, extra) == (
                bareiss_rank(rows), bareiss_rank([*rows, *extra]))


def test_ranks_on_the_kernel_refuse_dependent_distinct_columns(monkeypatch):
    # a negated column is a class of its own, so the classes (1, 2) and
    # (-1, -2) are dependent
    for m in ([[1, 2, 1], [2, 4, 2]], [[1, -1, 1], [2, -2, 2]]):
        with pytest.raises(InternalCheckError, match="distinct columns"):
            cli._ranks_on_the_kernel(m, [[1, 0, 0]])
    monkeypatch.setattr(projective, "quadric_conditions",
                        lambda samples, _subspaces, _d: (
                            range(3), [[1, 2, 1], [2, 4, 2]] if samples else [[1, 0, 0]]))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["quadrics", "--d", "3", "--g", "0", "--oracle"]) == 4
    assert err.getvalue() == (
        "internal error: the distinct columns of the conditions are dependent\n")


def densely(columns, nrows):
    """The matrix with these {row: entry} columns, as a list of rows."""
    return [[c.get(r, 0) for c in columns] for r in range(nrows)]


@st.composite
def sparse_columns(draw):
    """Columns over rows 0..nrows-1 with explicit zeros, +-2 entries, empty
    and duplicate columns; with all entries even, no column has a unit."""
    nrows = draw(st.integers(0, 7))
    entry = st.sampled_from((0, 1, -1, 2, -2, 3, -5))
    scale = draw(st.sampled_from((1, 2)))
    cols = []
    for _ in range(draw(st.integers(0, 7))):
        rows = draw(st.lists(st.integers(0, nrows - 1), max_size=nrows)) if nrows else []
        cols.append({r: scale * draw(entry) for r in rows})
    for _ in range(draw(st.integers(0, 2))):
        cols.append({})
    for _ in range(draw(st.integers(0, 2))):
        if cols:
            cols.append(dict(cols[draw(st.integers(0, len(cols) - 1))]))
    return nrows, draw(st.permutations(cols))


@settings(max_examples=300)
@given(data=sparse_columns())
def test_sparse_rank_matches_fractions(data):
    nrows, cols = data
    before = [dict(c) for c in cols]
    dense = densely(cols, nrows)
    assert linalg.sparse_rank(cols) == frac_rank(dense) == bareiss_rank(dense)
    assert cols == before  # the columns are read, not reduced in place


def test_sparse_rank_edge_cases():
    assert linalg.sparse_rank([]) == 0
    assert linalg.sparse_rank([{}, {0: 0}, {3: 0, 5: 0}]) == 0
    assert linalg.sparse_rank([{0: 2, 1: 4}, {0: 4, 1: 2}]) == 2  # no unit pivot
    assert linalg.sparse_rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    # a unit appears only after the first pivot clears its row
    assert linalg.sparse_rank([{0: 2, 1: 3}, {1: 1, 2: 1}]) == 2
    # row labels need not be contiguous
    assert linalg.sparse_rank([{40: 1, 7: -1}, {7: 1, 12: -1}, {12: 1, 40: -1}]) == 2


def combine(coeffs, columns):
    """The column sum of c * col over these coefficients and columns."""
    out = {}
    for c, col in zip(coeffs, columns):
        for r, x in col.items():
            out[r] = out.get(r, 0) + c * x
    return out


@pytest.mark.parametrize("seed", range(6))
def test_sparse_rank_on_100_bit_columns(seed):
    """Dependent columns cancel exactly although every step multiplies by
    100-bit pivots and divides by a content."""
    rng = random.Random(seed)
    nrows, k = rng.randint(6, 12), rng.randint(2, 5)
    big = lambda: rng.choice((-1, 1)) * rng.randint(2**99, 2**100)
    base = [{r: big() for r in rng.sample(range(nrows), rng.randint(1, nrows))}
            for _ in range(k)]
    mixed = [combine([rng.randint(-2**100, 2**100) for _ in range(k)], base)
             for _ in range(rng.randint(1, 6))]
    cols = base + mixed
    rng.shuffle(cols)
    dense = densely(cols, nrows)
    assert linalg.sparse_rank(cols) == frac_rank(dense) == frac_rank(densely(base, nrows))


@pytest.mark.parametrize("length", [1, 2, 5, 12])
def test_sparse_rank_through_chains_of_non_unit_pivots(length):
    """Column i is 2 at row i and 3 at row i+1, so every pivot entry is 3
    and a column led by row `length` reduces through the whole chain; a
    combination of the chain vanishes, one more entry at row 0 does not."""
    chain = [{i: 2, i + 1: 3} for i in range(length)]
    dependent = combine([(-2) ** i * 5 for i in range(length)], chain)
    for extra, rank in ((0, length), (7, length + 1)):
        last = {**dependent, 0: dependent[0] + extra}
        for cols in (chain + [last], [last] + chain, chain[::-1] + [last]):
            dense = densely(cols, length + 1)
            assert linalg.sparse_rank(cols) == frac_rank(dense) == rank


@pytest.mark.parametrize("k", [30, 29, 17, 1])
def test_sparse_rank_on_a_dense_30x30_block(k):
    """A dense 30 x 30 product of a 30 x k and a k x 30 matrix has rank k."""
    rng = random.Random(k)
    left, right = random_matrix(rng, 30, k), random_matrix(rng, k, 30)
    dense = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    cols = [{r: dense[r][j] for r in range(30)} for j in range(30)]
    assert linalg.sparse_rank(cols) == frac_rank(dense) == k
