"""compute_incidence and zappatic_report against the containment reference.

The arrangement module reads the singular points, their planes and local
edges, and the planes on each double line off the pairwise plane meets
alone.  ``oracles.containment_incidence`` and ``oracles.containment_report``
find the same by meeting every pair of double lines and by containment
tests, and check point-meet absorption explicitly.  Both must agree on
every arrangement the constructions classify, accepted or rejected, and on
random arrangements with many shared lines and points.  An attachment
attempt computes its incidence from the incidence of the old planes; that
must equal the from-scratch incidence too.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import containment_incidence, containment_report
from test_golden import LEDGER_CASES
from zappatic import constructions
from zappatic.arrangement import Arrangement, compute_incidence, zappatic_report
from zappatic.projective import Subspace


@pytest.fixture(scope="module")
def ledger_passes():
    """(arrangement, base, incidence) of every incidence pass of the ledger
    builds; base is the incidence of the old planes that an attachment
    attempt starts from (lifted into one more coordinate for Z), or None."""
    passes = []

    def recording(arr, base=None):
        inc = compute_incidence(arr, base)
        passes.append((arr, base, inc))
        return inc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "compute_incidence", recording)
        for build in LEDGER_CASES.values():
            build()
    return passes


def test_ledger_passes_match_reference(ledger_passes):
    rejected = 0
    for arr, base, inc in ledger_passes:
        assert inc == compute_incidence(arr)
        assert inc == containment_incidence(arr)
        report = zappatic_report(arr, inc)
        assert report == containment_report(arr, inc)
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


@settings(max_examples=300)
@given(arrangements(), st.data())
def test_random_arrangements_match_reference(arr, data):
    inc = compute_incidence(arr)
    assert inc == containment_incidence(arr)
    assert zappatic_report(arr, inc) == containment_report(arr, inc)
    # grown from the incidence of its first k planes, it is the same
    k = data.draw(st.integers(0, len(arr)))
    old = Arrangement(arr.ambient_dim, arr.planes[:k])
    assert compute_incidence(arr, compute_incidence(old)) == inc
