import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic import linalg

from oracles import frac_nullspace, frac_primitive, frac_rank, frac_rref


@pytest.fixture(params=("python", "compiled"))
def backend(request):
    if request.param == "compiled":
        request.getfixturevalue("compiled_linalg")
    old = linalg.backend_name()
    linalg.set_backend(request.param)
    yield request.param
    linalg.set_backend(old)


def random_matrix(rng, nr, nc, lo=-30, hi=30):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_rank_small_cases(backend):
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[2, 4], [1, 2]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


def test_rank_matches_fraction_oracle(backend):
    rng = random.Random(1)
    for _ in range(150):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        m = random_matrix(rng, nr, nc)
        assert linalg.rank(m) == frac_rank(m)


def test_rref_is_scaled_fraction_rref(backend):
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


def test_rref_idempotent_and_canonical(backend):
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 5, 6)
        r1 = linalg.rref(m)
        assert linalg.rref(list(map(list, r1))) == r1
        # row-shuffled input gives the same canonical form
        m2 = m[:]
        rng.shuffle(m2)
        assert linalg.rref(m2) == r1


def test_nullspace_annihilates(backend):
    rng = random.Random(4)
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        m = random_matrix(rng, nr, nc)
        ns = linalg.nullspace(m)
        assert len(ns) == nc - linalg.rank(m)
        for v in ns:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert ns == tuple(frac_primitive(v) for v in frac_nullspace(m))


def test_nullspace_empty_matrix(backend):
    assert linalg.nullspace([], ncols=3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_solve_consistent_and_inconsistent(backend):
    a = [[1, 2], [3, 4]]
    x = linalg.solve(a, [5, 6])
    assert [x[0] + 2 * x[1], 3 * x[0] + 4 * x[1]] == [5, 6]
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_backends_agree_on_big_entries(bareiss_c, monkeypatch):
    monkeypatch.setattr(linalg, "_c", bareiss_c)
    rng = random.Random(5)
    big = [[rng.randint(-(10**25), 10**25) for _ in range(5)] for _ in range(5)]
    old = linalg.backend_name()
    try:
        linalg.set_backend("compiled")
        r_c = linalg.rref(big)  # falls back internally on overflow
        rk_c = linalg.rank(big)
        linalg.set_backend("python")
        assert r_c == linalg.rref(big)
        assert rk_c == linalg.rank(big)
    finally:
        linalg.set_backend(old)


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


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert linalg.clear_denominators([Fraction(-2), Fraction(4)]) == (1, -2)
