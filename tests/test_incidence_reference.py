"""compute_incidence and zappatic_report against the containment reference.

The arrangement module reads the singular points, their planes and local
edges, and the planes on each double line off the pairwise plane meets
alone.  ``oracles.containment_incidence`` and ``oracles.containment_report``
find the same by meeting every pair of double lines and by containment
tests, and check point-meet absorption explicitly.  Both must agree on
every arrangement the constructions classify, accepted or rejected, on
random arrangements with many shared lines and points, on random S_n
forks, and on S_4 to S_6 forks, with a coordinate or a general centre,
that span fully or too little.  An attachment attempt computes its
incidence and report from those of the old planes; they must equal the
from-scratch incidence and report too.  The counts and
central planes of a Zappatic report must match the dual complex built from
it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    containment_incidence,
    containment_report,
    coordinate_changes,
    moved,
    report_disagreements,
)
from spy import spy
from test_acceptance import GRID
from test_golden import LEDGER_CASES
from zappatic.arrangement import (
    Arrangement,
    classify_point,
    compute_incidence,
    zappatic_report,
)
from zappatic.complexes import build_dual_graph
from zappatic import linalg
from zappatic.constructions import build_X, build_Z
from zappatic.projective import Subspace


@pytest.fixture(scope="module")
def ledger_passes():
    """(arrangement, base, incidence) of every incidence pass of the ledger
    builds; base is the incidence of the old planes that an attachment
    attempt starts from (lifted into one more coordinate for Z), or None."""
    with spy(compute_incidence) as calls:
        for build in LEDGER_CASES.values():
            build()
    return [(c.args[0], c.args[1] if len(c.args) > 1 else None, c.result) for c in calls]


def assert_matches_complex(arr, inc, report):
    """A Zappatic report agrees with the dual complex built from it."""
    if report.is_zappatic:
        graph = build_dual_graph(arr, inc, report)
        assert not report_disagreements(inc, report, graph)


def test_ledger_passes_match_reference(ledger_passes):
    rejected = 0
    for arr, base, inc in ledger_passes:
        assert inc == compute_incidence(arr)
        assert inc == containment_incidence(arr)
        report = zappatic_report(arr, inc)
        assert report == containment_report(arr, inc)
        assert_matches_complex(arr, inc, report)
        rejected += not report.is_zappatic
    # the ledger builds retry, so some passes classify a rejected attempt
    assert rejected > 0


def test_ledger_bases_are_the_incidence_of_the_old_planes(ledger_passes):
    """Each attachment attempt starts from the from-scratch incidence of the
    planes it grows, lifted into one more coordinate for the Z steps."""
    added = Counter()
    for arr, base, _ in ledger_passes:
        if base is None:
            continue
        k = max(j + 1 for _, j, _ in base.double_lines + base.point_meets)
        old = Arrangement(arr.ambient_dim, arr.planes[:k])
        assert base == compute_incidence(old)
        added[len(arr) - k] += 1
    # quadric handles add two planes, cubic scrolls three
    assert set(added) == {2, 3}


# (d, g, seed) of Z builds up to d = 44; Z(8, 2, 13) retries
Z_BUILDS = [(8, 2, 13), (11, 3, 2), (14, 4, 0), (20, 6, 1), (32, 10, 0), (44, 14, 0)]


def test_grown_reports_match_from_scratch():
    """Every attachment attempt of the acceptance grid, the ledger builds
    and Z up to d = 44, accepted or rejected, reuses the old report's types
    and classifies fewer points, yet its report equals the from-scratch one:
    the counts, the types and the violations in order."""
    with spy(classify_point, zappatic_report) as calls:
        for d, g, seed in GRID:
            build_X(d, g, seed)
        for d, g, seed in Z_BUILDS:
            build_Z(d, g, seed)
        for build in LEDGER_CASES.values():
            build()
    classified = Counter()
    attempts = Counter()
    points = 0  # the classify_point calls of the report that returns next
    for c in calls:
        if c.name == "classify_point":
            points += 1
            continue
        if len(c.args) == 3:  # (arr, inc, base): grown from the old report
            with spy(classify_point) as scratch:
                assert c.result == zappatic_report(*c.args[:2])
            classified["grown"] += points
            classified["scratch"] += len(scratch)
            attempts[c.result.is_zappatic] += 1
        points = 0
    assert attempts[True] and attempts[False]
    assert classified["grown"] < classified["scratch"]


@st.composite
def arrangements(draw):
    """2 to 7 distinct planes of P^3..P^5, each spanned by three points of a
    pool of 5 to 8 points with entries in {-1, 0, 1}, so that the planes
    share many lines and points."""
    r = draw(st.integers(3, 5))
    point = st.lists(st.integers(-1, 1), min_size=r + 1, max_size=r + 1)
    pool = draw(st.lists(point, min_size=5, max_size=8))
    triple = st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3, unique=True)
    n = draw(st.integers(2, 7))
    planes = {}
    for _ in range(3 * n):  # bounded: dependent triples span no plane
        if len(planes) == n:
            break
        s = Subspace(r, [pool[k] for k in draw(triple)])
        if s.dim == 2:
            planes.setdefault(s.basis, s)
    assume(len(planes) >= 2)
    return Arrangement(r, list(planes.values()))


# pairwise independent points of the line e1 e2 of the fork's centre
CENTRE_LINE_POINTS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))


@st.composite
def forks(draw):
    """(arrangement, n, index of the centre): an S_n fork of n = 4 or 5
    coordinate planes of P^(n+1), the centre spanned by e0, e1, e2 and each
    leaf by e0, a point of the line e1 e2 and a coordinate of its own, so
    that it meets the centre in a line through e0 and the other leaves in
    e0 alone; in shuffled order, under an invertible change of coordinates
    L U (unit triangular, off-diagonal entries in {-1, 0, 1}), with up to
    two extra planes through points with entries in {-1, 0, 1}."""
    n = draw(st.integers(4, 5))
    r = n + 1
    units = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
    leaf_points = draw(st.lists(st.sampled_from(CENTRE_LINE_POINTS), min_size=n - 1,
                                max_size=n - 1, unique=True))
    planes = [units[:3]] + [[units[0], [0, a, b] + [0] * (r - 2), units[3 + i]]
                             for i, (a, b) in enumerate(leaf_points)]
    order = draw(st.permutations(range(n)))
    off = st.integers(-1, 1)
    lower = [[1 if i == j else draw(off) if j < i else 0 for j in range(r + 1)]
             for i in range(r + 1)]
    upper = [[1 if i == j else draw(off) if j > i else 0 for j in range(r + 1)]
             for i in range(r + 1)]
    change = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)]
              for row in lower]
    subs = [Subspace(r, [[sum(x * y for x, y in zip(v, col)) for col in zip(*change)]
                         for v in planes[k]]) for k in order]
    point = st.lists(st.integers(-1, 1), min_size=r + 1, max_size=r + 1)
    for rows in draw(st.lists(st.lists(point, min_size=3, max_size=3), max_size=2)):
        extra = Subspace(r, rows)
        if extra.dim == 2 and extra not in subs:
            subs.append(extra)
    return Arrangement(r, subs), n, order.index(0)


@settings(max_examples=300)
@given(arrangements(), st.data())
def test_random_arrangements_match_reference(arr, data):
    assert_matches_reference(arr, data)


@settings(max_examples=150)
@given(forks(), st.data())
def test_random_forks_match_reference(fork, data):
    arr, n, centre = fork
    report = assert_matches_reference(arr, data)
    if len(arr) == n:  # no extra plane: one S_n point, on the centre
        assert report.is_zappatic
        assert report.s_counts == {n: 1}
        (t,) = report.types
        assert t.central == centre


def fork_arrangement(n, general, full):
    """An S_n fork of P^(n+1): the centre <p, a, b>, then per extra w the
    leaf <p, a + k b, w>, k = 0 .. n - 2, so that it meets the centre in a
    line through p.  p, a, b are e0, e1, e2, plus for a general centre a
    seeded tail in [-2, 2] on the other coordinates, which puts the centre
    off the coordinate planes; the extras are e3 .. e(n+1).  These n + 2
    vectors are a basis, so the leaves meet one another in p alone and the
    fork spans P^(n+1).  Unless full, the last extra is the sum of the first
    two instead: its leaf lies in the span of the other planes."""
    r = n + 1
    rng = random.Random(n)
    units = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
    p, a, b = ([x + (rng.randint(-2, 2) if general and j > 2 else 0) for j, x in enumerate(row)]
               for row in units[:3])
    extras = units[3:]
    if not full:
        extras[-1] = [x + y for x, y in zip(extras[0], extras[1])]
    leaves = [[p, [x + k * y for x, y in zip(a, b)], w] for k, w in enumerate(extras)]
    return Arrangement(r, [Subspace(r, rows) for rows in [[p, a, b], *leaves]])


@pytest.mark.parametrize("full", [True, False], ids=["spanning", "span-too-small"])
@pytest.mark.parametrize("general", [False, True], ids=["coordinate-centre", "general-centre"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_fork_spans_match_the_bareiss_rank(n, general, full):
    """classify_point ranks a fork on one row per leaf modulo its centre;
    containment_report ranks all 3n rows.  They agree as built, where a
    general centre has equations that the rank reads, and on moved copies
    whose centre is listed last."""
    arr = fork_arrangement(n, general, full)
    expected = [f"S{n}" if full else "NonZappatic(span too small)"]
    assert bool(arr.planes[0].equations) == general
    inc = compute_incidence(arr)
    with spy(linalg.rank) as calls:
        report = zappatic_report(arr, inc)
    assert [t.tag for t in report.types] == expected
    assert [len(c.args[0]) for c in calls] == [n - 1]
    assert report == containment_report(arr, inc)
    for m in coordinate_changes(arr.ambient_dim, seed=n, bound=3, count=3):
        copy = moved(arr, m, order=range(n - 1, -1, -1))
        inc = compute_incidence(copy)
        report = zappatic_report(copy, inc)
        assert [t.tag for t in report.types] == expected
        assert report == containment_report(copy, inc)


def assert_matches_reference(arr, data):
    """compute_incidence and zappatic_report equal the containment reference
    and agree with the dual complex, also when grown from a drawn prefix of
    the planes; returns the report."""
    inc = compute_incidence(arr)
    report = zappatic_report(arr, inc)
    assert inc == containment_incidence(arr)
    assert report == containment_report(arr, inc)
    assert_matches_complex(arr, inc, report)
    # grown from the incidence and report of its first k planes, they are the same
    k = data.draw(st.integers(0, len(arr)))
    old = Arrangement(arr.ambient_dim, arr.planes[:k])
    old_inc = compute_incidence(old)
    assert compute_incidence(arr, old_inc) == inc
    assert zappatic_report(arr, inc, (old_inc, zappatic_report(old, old_inc))) == report
    return report
