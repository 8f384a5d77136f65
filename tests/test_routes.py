"""Every exact route in one table, and the tests of the spy that reads them.

The golden corpus pins what the program prints.  ROUTES pins how it gets
there: which meet path runs, which shapes and widths the kernel sees, and
how many calls each takes.  A row runs its scenario under the spy, with the
scenario's own checks, and compares what the calls show with a literal.  A
change that keeps every output byte but takes another route edits its rows
here and nowhere else.  A pin that bounds a cost ("equations cost one
nullspace", "one dual graph per construct") stays in its own test.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bareiss_rank, basis_pivots, coordinate_changes, frac_rank, moved
from spy import Call, owners, spy
from test_arrangement import cyclic_triple_in_p3
from test_golden import LEDGER_CASES, TETRAHEDRON
from test_linalg import assert_pure_kernel_matches_references, densely
from test_projective import assert_meet_exact, random_point
from test_scrolls import HYPERBOLIC
from zappatic import _bareiss, cli, constructions, linalg, scrolls
from zappatic.arrangement import Arrangement, compute_incidence
from zappatic.constructions import build_X, build_Z, cycle_from_chain
from zappatic.projective import ProjPoint, Subspace, meet, meet_dim, span


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as work:
        assert cli.main([a.format(work=work) for a in argv]) == 0


def _shapes(calls, *names):
    """(rows, columns) of the matrix of each call of these names."""
    return [(len(c.args[0]), c.kwargs.get("ncols") or len(c.args[0][0]))
            for c in calls if c.name in names]


def _widths(calls):
    """The width of each kernel of R; an equations call names none."""
    return tuple(c.kwargs["ncols"] for c in calls if "ncols" in c.kwargs)


def _command_kernel(argv, view):
    """The command's kernel inputs, each with the references' rank and rref."""
    def run(calls):
        _main(argv)
        for c in calls:
            if c.name in ("rank", "rref"):
                assert_pure_kernel_matches_references(c.args[0])
        return view(calls)
    return run


def _z11_view(calls):
    equations = [tuple(map(tuple, c.args[0])) for c in calls if c.name == "nullspace"]
    return {"rank": _shapes(calls, "rank"), "rref": Counter(_shapes(calls, "rref")),
            "nullspace": Counter(_shapes(calls, "nullspace")), "distinct": len(set(equations))}


def _torus_kernel_calls(calls):
    """n, m = 2..4: each d2, written densely, has the references' rank."""
    seen = []
    for n, m in product(range(2, 5), repeat=2):
        calls.clear()
        _main(["invariants", "--abstract", "torus", str(n), str(m)])
        for d2 in (c for c in calls if c.name == "sparse_rank"):
            dense = densely(d2.args[0], 3 * n * m)
            assert len(d2.args[0]) == n * m
            assert d2.result == frac_rank(dense) == bareiss_rank(dense) == n * m - 1
            assert_pure_kernel_matches_references(dense)
        seen.append(Counter(c.name for c in calls))
    return seen


def _meet_path(case):
    """Each path of meet against the oracle, with the facts that make it that
    path: (equations read, kernels of R) by the meets in both orders."""
    def run(calls):
        rows_a, rows_b, _, _ = MEET_PATHS[case]
        n = len(rows_a[0]) - 1
        a, b = Subspace(n, rows_a), Subspace(n, rows_b)
        if case.startswith("pivots not 1"):
            assert all(row[c] > 1 for row, c in zip(a.basis, (0, 2, 4)))
        assert_meet_exact(a, b)
        read = len(calls) - len(_widths(calls)), len(_widths(calls))
        # each equations call is a side that has equations, which it keeps
        assert read[0] == sum(bool(s.__dict__.get("equations")) for s in (a, b))
        if case == "b in a":
            assert meet(a, b) == b
        if case.startswith("plane pair"):
            # neither shortcut: the supports meet and one side is not a coordinate plane
            assert a.support & b.support and max(len(a.support), len(b.support)) > 3
            dim = {"disjoint": -1, "in a point": 0, "in a line": 1}[case[len("plane pair "):]]
            assert meet(a, b).dim == dim
        if case == "disjoint by b's own columns":
            # in both orders, the other side's columns off one side's support
            # have rank 3, so they decide the meet with no reduced column
            for x, y in ((a, b), (b, a)):
                own = [[row[c] for row in y.basis] for c in y.support - x.support]
                assert linalg.rank(own) == 3
            assert a.support & b.support and meet(a, b).dim == -1
        if case == "coordinate x dense in a point":
            # a's support is its pivot columns: only b's own columns are read
            assert a.support == set(basis_pivots(a.basis)) and len(b.support) == 6
            assert meet(a, b) == span([ProjPoint([1, 1, 1, 0, 0, 0])], 5)
        if case == "pivots not 1, plane b":
            # the supports overlap, neither inside the other, and the reduced
            # columns on a's non-pivot support are needed besides b's own
            assert a.support & b.support and a.support - b.support and b.support - a.support
            own = [[row[c] for row in b.basis] for c in b.support - a.support]
            assert linalg.rank(own) == 2 and meet(a, b).dim == 0
        return read
    return run


def _met(calls, a, b):
    """The kernel widths of meet(a, b) and meet(b, a), checked against the
    oracle, and the meet's dimension."""
    calls.clear()
    assert_meet_exact(a, b)
    return _widths(calls), meet(a, b).dim


def _point_and_line_sides(calls):
    """80 meets whose smaller side is a point or a line, in P^3..P^22."""
    rng = random.Random(38)
    seen = Counter()
    for _ in range(80):
        n = rng.randint(3, 22)
        h = rng.choice([5, 2**70])
        m = rng.randint(1, 2)
        common = [random_point(rng, n + 1, h) for _ in range(rng.randint(0, m))]
        b = span(common + [random_point(rng, n + 1, h) for _ in range(m - len(common))], n)
        a = span(common + [random_point(rng, n + 1, h)
                           for _ in range(rng.randint(m, 4) - len(common))], n)
        seen[(m, *_met(calls, a, b))] += 1
    return seen


PI = Subspace(3, [[1, 0, 0, 1], [0, 1, 1, 0], [1, 2, 3, 4]])


def _section_duality_check():
    out = scrolls.section_duality_check(HYPERBOLIC, PI, 8, base_point=ProjPoint([1, 0, 0, 0]))
    assert out["passed"] is True


def _ruling_meets(calls):
    _section_duality_check()
    met = [c.args for c in calls if c.name == "meet"]
    return [(a.dim, b == PI, *_met(calls, a, b)) for a, b in met]


def _tetrahedron_crossings(seed):
    def run(calls):
        arr = constructions._coordinate_planes(3, TETRAHEDRON).arrangement
        if seed is not None:
            [m] = coordinate_changes(3, seed=seed, bound=2, count=1)
            arr = moved(arr, m)
        calls.clear()
        compute_incidence(arr)
        met = [c.args for c in calls if c.name == "meet" and c.args[0].dim == 1]
        return [(b.dim, *_met(calls, a, b)) for a, b in met]
    return run


def _sides(calls):
    return Counter((c.args[0].dim, c.args[1].dim) for c in calls)


def _plane_pair_meets(build):
    """A triangle-free build's meets from scratch and grown from its other
    planes, against its plane pairs that share a coordinate."""
    def run(calls):
        arr = build().arrangement
        sup = [p.support for p in arr.planes]
        sharing = [(i, j) for i, j in combinations(range(len(arr)), 2) if sup[i] & sup[j]]
        base = compute_incidence(Arrangement(arr.ambient_dim, arr.planes[:-1]))
        calls.clear()
        inc = compute_incidence(arr)
        neighbours = [set() for _ in arr.planes]
        for i, j, _ in inc.double_lines:
            neighbours[i].add(j)
            neighbours[j].add(i)
        assert not any(neighbours[i] & neighbours[j] for i, j, _ in inc.double_lines)
        scratch = _sides(calls)
        calls.clear()
        assert compute_incidence(arr, base) == inc
        return {"sharing pairs": len(sharing), "scratch": scratch,
                "sharing the last plane": sum(j == len(arr) - 1 for _, j in sharing),
                "grown": _sides(calls)}
    return run


def _triangle_meets(calls):
    """The E_3 triple's meets from scratch, then grown from its own incidence."""
    arr = cyclic_triple_in_p3()
    inc = compute_incidence(arr)
    [sp] = inc.singular_points
    assert sp.point.coords == (0, 0, 1, 0) and sp.incident_planes == {0, 1, 2}
    scratch = [(c.args[0].dim, c.args[1].dim) for c in calls]
    calls.clear()
    assert compute_incidence(arr, inc) == inc
    return scratch, len(calls)


def _anchor_answers(name):
    def run(calls):
        assert not hasattr(constructions, "meet")  # the check builds no meet
        LEDGER_CASES[name]()
        return [c.result for c in calls]
    return run


def _d5_transversality(calls):
    res = cycle_from_chain(5, seed=21)
    assert meet(res.attachments[0].span_pi, res.arrangement.planes[1]).dim == 1
    return [(c.args[0].ambient_dim, c.args[0].dim, c.result) if c.name == "meet_dim"
            else c.name for c in calls]


# case: (a's basis, b's basis, (equations read, kernels of R), why), in P^5,
# or in P^7 where the supports need the room.  Each side's equations are one
# nullspace call however many meets read them; the shortcuts, and a meet
# that b's own columns decide, read none.  A side of one or two rows takes a
# kernel per meet; a plane's kernel is crossed, or written down for a line.
COORDINATE, CROSSED = "two coordinate subspaces: the shortcut", "a plane's kernel is crossed"
MEET_PATHS = {
    "coordinate nested": ([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
                          [[0, 0, 1, 0, 0, 0]], (0, 0), COORDINATE),
    "coordinate equal": ([[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
                         [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 0]],
                         (0, 0), COORDINATE),
    "coordinate one shared": ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
                              [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
                              (0, 0), COORDINATE),
    "coordinate x dense": ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
                           [[1, 2, 0, 3, 0, 0], [0, 1, 1, 0, 0, 0], [5, 0, 0, 1, 1, 0]],
                           (1, 0), f"the dense plane's equations; {CROSSED}"),
    "b in a": ([[1, 2, 0, 3, 0, 1], [0, 1, 1, 0, 0, 2], [5, 0, 0, 1, 1, 0]],
               [[1, 3, 1, 3, 0, 3], [6, 2, 0, 4, 1, 1]],
               (1, 2), "a's equations; the line's kernel, of no column, in each order"),
    "line then plane": ([[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1]],
                        [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0]],
                        (1, 2), "the plane's equations; the line's kernel in each order"),
    "plane then 3-space": ([[1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
                           [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                            [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]],
                           (1, 0), f"the 3-space's equations; {CROSSED}"),
    "plane pair disjoint": ([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]],
                            [[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 2]],
                            (2, 0), f"each plane's equations; {CROSSED}"),
    "plane pair in a point": ([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]],
                              [[1, 1, 1, 0, 1, 1], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 3]],
                              (2, 0), f"each plane's equations; {CROSSED}"),
    "plane pair in a line": ([[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1]],
                             [[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]],
                             (2, 0), "each plane's equations; the line's kernel written down"),
    "pivots not 1": ([[2, 1, 0, 0, 0, 0], [0, 0, 3, 1, 0, 0], [0, 0, 0, 0, 5, 2]],
                     [[2, 1, 3, 1, 5, 2], [0, 0, 0, 0, 0, 1]],
                     (1, 2), "the plane's equations; the line's kernel in each order"),
    "disjoint by b's own columns": ([[1, 0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 2, 0, 0, 0, 0],
                                     [0, 0, 1, 3, 0, 0, 0, 0]],
                                    [[0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 1],
                                     [0, 0, 0, 0, 1, 0, 1, 0]],
                                    (0, 0), "each side's own columns decide, in both orders"),
    "coordinate x dense in a point": ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                       [0, 0, 1, 0, 0, 0]],
                                      [[1, 1, 1, 0, 0, 0], [1, 2, 3, 1, 0, 1],
                                       [2, 0, 1, 0, 1, 1]],
                                      (1, 0), f"the dense plane's equations; {CROSSED}"),
    "pivots not 1, plane b": ([[2, 1, 0, 0, 0, 0, 0, 0], [0, 0, 3, 1, 0, 0, 0, 0],
                               [0, 0, 0, 0, 5, 2, 0, 0]],
                              [[0, 0, 0, 0, 5, 2, 0, 0], [0, 0, 0, 1, 1, 0, 1, 0],
                               [0, 0, 0, 0, 0, 1, 1, 1]],
                              (2, 0), f"each plane's equations; {CROSSED}"),
}

KERNEL = (linalg.rank, linalg.rref)

# name: (the functions spied, run(calls) -> what the calls show, that as a literal, why)
ROUTES = {
    "quadrics --d 7 --oracle kernel inputs": (
        KERNEL, _command_kernel(["quadrics", "--d", "7", "--g", "0", "--oracle"],
                               lambda calls: _shapes(calls, "rank", "rref")),
        [(5, 8)],
        "the codim-3 subspace's basis alone: the curve's 15 distinct columns and the "
        "subspace's 15 conditions on the 21 equal-weight monomial differences are full "
        "rank mod p, so the certificate answers for both"),
    "quadrics --d 12 --oracle reaches no wide kernel input": (
        KERNEL, _command_kernel(["quadrics", "--d", "12", "--g", "0", "--oracle"],
                               lambda calls: [s for s in _shapes(calls, "rank", "rref")
                                              if s[1] >= 25]),
        [],
        "neither D (26 x 25) nor L (55 x 66) goes to the exact kernel: both are "
        "certified full rank mod p"),
    "construct Z(11,3,2) kernel inputs": (
        (*KERNEL, linalg.nullspace),
        _command_kernel(["construct", "--family", "Z", "--d", "11", "--g", "3", "--seed", "2",
                        "--out", "{work}/z.json"], _z11_view),
        {"rank": [(3, 3), (3, 3), (3, 4), (3, 4)],
         "rref": {(3, 7): 8, (2, 7): 4, (3, 6): 3, (4, 7): 2, (1, 7): 2, (5, 7): 2},
         "nullspace": {(3, 6): 3, (3, 7): 2}, "distinct": 5},
        "each S_4 point ranked on one image row per leaf modulo its centre (the columns "
        "off the centre's support, then its equations), an R_3 span forced; each plane's "
        "equations once, on its support; no plane pair's kernel"),
    "invariants --abstract torus kernel calls": (
        (linalg.sparse_rank, *KERNEL), _torus_kernel_calls, [{"sparse_rank": 1}] * 9,
        "the d2 is ranked sparsely, and no dense block reaches the kernel"),
    **{f"meet path: {case}": ((linalg.nullspace,), _meet_path(case), read, why)
       for case, (_, _, read, why) in MEET_PATHS.items()},
    "meets of a point or line side": (
        (linalg.nullspace,), _point_and_line_sides,
        {(1, (1, 1), -1): 16, (1, (1, 1), 0): 26,
         (2, (2, 2), -1): 11, (2, (2, 2), 0): 10, (2, (2, 2), 1): 17},
        "a side of m = 1 or 2 rows takes a kernel of width m in each order"),
    "ruling-line meets of section_duality_check": (
        (meet, linalg.nullspace), _ruling_meets, [(1, True, (2, 2), 0)] * 8,
        "8 rulings meet the plane in a point, each through a line side's kernel"),
    "tetrahedron line crossings, coordinate": (
        (meet, linalg.nullspace), _tetrahedron_crossings(None), [(1, (), 0)] * 4,
        "coordinate lines cross by the shortcut"),
    "tetrahedron line crossings, moved": (
        (meet, linalg.nullspace), _tetrahedron_crossings(6), [(1, (2, 2), 0)] * 4,
        "moved lines cross through a line side's kernel"),
    "plane-pair meets of X(16,4,0)": (
        (meet,), _plane_pair_meets(lambda: build_X(16, 4, 0)),
        {"sharing pairs": 120 - 37, "scratch": {(2, 2): 120 - 37},
         "sharing the last plane": 13, "grown": {(2, 2): 13}},
        "no triangle of double lines: one meet per plane pair that shares a coordinate"),
    "plane-pair meets of Z(14,4,0)": (
        (meet,), _plane_pair_meets(lambda: build_Z(14, 4, 0)),
        {"sharing pairs": 91 - 0, "scratch": {(2, 2): 91 - 0},
         "sharing the last plane": 13, "grown": {(2, 2): 13}},
        "no triangle of double lines: one meet per plane pair that shares a coordinate"),
    "meets of the E_3 triangle": (
        (meet,), _triangle_meets, ([(2, 2)] * 3 + [(1, 1)], 0),
        "three plane pairs, then two of the triangle's lines once; grown from itself, none"),
    **{f"anchor-line check of {name}": (
        (Subspace.contains_point,), _anchor_answers(name),
        [True, True] if name.startswith("Y") else [True, False],
        "plane k is asked for both anchors: X refuses one that holds only the first, "
        "Y lets through one that holds both")
       for name in ("X_10_3_1", "X_12_4_1", "Y_9_2_7", "Y_9_2_37")},
    "transversality of cycle_from_chain(5, 21)": (
        (meet_dim, Subspace.contains_point), _d5_transversality, [(4, 3, 1)],
        "P^4's hyperplane meets the central plane in a line: meet_dim accepts it, no anchor asked"),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_route(name):
    spied, run, expect, why = ROUTES[name]
    with spy(*spied) as calls:
        got = run(calls)
    assert got == expect, why


def test_spy_sees_every_module_and_puts_every_reference_back():
    originals = (meet, Subspace.contains_point)

    def held():
        return [(owner, attr) for owner in owners() for attr, value in vars(owner).items()
                if any(value is f for f in originals)]

    before = held()
    assert len(before) >= 4  # projective, arrangement, scrolls and Subspace at least
    with spy(*originals) as calls:
        assert held() == []
        compute_incidence(cyclic_triple_in_p3())  # meets from arrangement
        from_arrangement = len(calls)
        _section_duality_check()  # meets from scrolls
    assert (from_arrangement, [c.name for c in calls].count("meet")) == (4, 4 + 8)
    assert held() == before
    with pytest.raises(ZeroDivisionError), spy(*originals):
        1 / 0
    assert held() == before
    with pytest.raises(LookupError), spy(random.random):
        pass


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=4))
def test_spy_passes_arguments_and_results_through(rows):
    with spy(linalg.rref) as calls:
        got = linalg.rref(rows)
    assert got == _bareiss.rref(rows)
    assert calls == [Call("rref", (rows,), {}, got)]
    assert calls[0].args[0] is rows and calls[0].result is got
