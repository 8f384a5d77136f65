import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from oracles import coordinate_changes, frac_rank, graph_shape, moved, moved_subspace
from spy import spy
from test_acceptance import GRID
from test_constructions import _grid_torus_triangles
from test_golden import LEDGER_CASES, MOEBIUS_TORUS, OCTAHEDRON, TETRAHEDRON
from zappatic import constructions, linalg
from zappatic.arrangement import (
    Arrangement,
    _graph_shape,
    classify_point,
    compute_incidence,
    zappatic_report,
)
from zappatic.complexes import build_dual_graph
from zappatic.constructions import build_X, build_Y, build_Z, cycle_planes
from zappatic.errors import RangeError
from zappatic.invariants import invariants_of
from zappatic.projective import Subspace


def coord_plane(missing, n):
    """The coordinate hyperplane-ish plane x_missing = 0 needs n = 3."""
    rows = [[1 if j == i else 0 for j in range(n + 1)] for i in range(n + 1) if i != missing]
    return Subspace(n, rows)


def plane(rows, n):
    return Subspace(n, rows)


SKEW = plane([[1, 2, 0, -1], [0, 1, 1, 2], [2, 0, 1, 0]], 3)  # not a coordinate plane


def chain_of_four_in_p4():
    """The chain <e0,e1,e2> - <e0,e2,e3> - <e0,e3,e4> - <e0,e4,e1+e2+e3>
    through e0: the graph shape passes, but an R_4 point needs a P^5."""
    a = plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 4)
    b = plane([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]], 4)
    c = plane([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 4)
    d = plane([[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 1, 1, 0]], 4)
    return Arrangement(4, [a, b, c, d])


def cyclic_triple_in_p3():
    """Three planes whose pairwise lines all pass through e2, giving a
    triangle graph whose span is P^3: an E_3 point."""
    a = plane([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 3)
    b = plane([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    c = plane([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 3)
    return Arrangement(3, [a, b, c])


def tags(arr):
    return Counter(t.tag for t in zappatic_report(arr).types)


class TestIncidence:
    def test_three_coordinate_planes_of_p3(self):
        arr = Arrangement(3, [coord_plane(0, 3), coord_plane(1, 3), coord_plane(2, 3)])
        inc = compute_incidence(arr)
        assert len(inc.double_lines) == 3
        assert len(inc.point_meets) == 0
        assert len(inc.singular_points) == 1
        sp = inc.singular_points[0]
        assert sp.point.coords == (0, 0, 0, 1)
        assert sp.incident_planes == frozenset({0, 1, 2})
        assert len(sp.local_edges) == 3

    def test_two_disjoint_planes_in_p5(self):
        a = plane([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 5)
        b = plane([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 5)
        inc = compute_incidence(Arrangement(5, [a, b]))
        assert inc.double_lines == ()
        assert inc.point_meets == ()
        assert inc.singular_points == ()

    @pytest.mark.parametrize(
        "planes, message",
        [
            pytest.param(
                [plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 4)],
                "plane ambient dimension mismatch",
                id="ambient",
            ),
            pytest.param(
                [coord_plane(3, 3), coord_plane(3, 3)], "duplicate plane at index 1", id="duplicate"
            ),
            # bases are canonical, so one plane from other spanning rows is a
            # duplicate too, and compute_incidence never meets a plane with itself
            pytest.param(
                [SKEW, coord_plane(3, 3), plane([[-3, -6, 0, 3], [0, 5, 5, 10], [4, 0, 2, 0]], 3)],
                "duplicate plane at index 2",
                id="duplicate-scaled",
            ),
            pytest.param(
                [SKEW, plane([[2, 0, 1, 0], [1, 2, 0, -1], [0, 1, 1, 2]], 3)],
                "duplicate plane at index 1",
                id="duplicate-reordered",
            ),
            pytest.param(
                [SKEW, plane([[Fraction(1, 2), 1, 0, Fraction(-1, 2)],
                              [0, Fraction(-2, 7), Fraction(-2, 7), Fraction(-4, 7)],
                              [3, 2, 1, -1]], 3)],
                "duplicate plane at index 1",
                id="duplicate-fractions",
            ),
            pytest.param(
                [plane([[1, 0, 0, 0], [0, 1, 0, 0]], 3)],
                "a component plane must have dimension 2",
                id="line",
            ),
        ],
    )
    def test_invalid_planes_rejected(self, planes, message):
        with pytest.raises(RangeError, match=message):
            Arrangement(3, planes)

    def test_point_meet_recorded(self):
        a = plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 4)
        b = plane([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 4)
        inc = compute_incidence(Arrangement(4, [a, b]))
        assert len(inc.point_meets) == 1
        i, j, p = inc.point_meets[0]
        assert (i, j) == (0, 1) and p.coords == (0, 0, 1, 0, 0)


class TestClassification:
    def test_e3_at_origin_of_three_coordinate_planes(self):
        arr = Arrangement(3, [coord_plane(0, 3), coord_plane(1, 3), coord_plane(2, 3)])
        inc = compute_incidence(arr)
        t = classify_point(arr, inc, 0)
        assert t.tag == "E3"

    def test_isolated_contact_is_not_zappatic(self):
        a = plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 4)
        b = plane([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 4)
        arr = Arrangement(4, [a, b])
        rep = zappatic_report(arr)
        assert not rep.is_zappatic
        assert len(rep.violations) == 1
        assert "isolated plane-pair contact" in rep.violations[0]

    def test_r3_chain_of_three_planes(self):
        # chain: planes spanned by consecutive coordinate-point triples of P^4
        def pl(i):
            rows = [[1 if j == k else 0 for j in range(5)] for k in (i, i + 1, i + 2)]
            return Subspace(4, rows)

        arr = Arrangement(4, [pl(0), pl(1), pl(2)])
        inc = compute_incidence(arr)
        assert len(inc.singular_points) == 1
        t = classify_point(arr, inc, 0)
        assert t.tag == "R3"
        assert t.central == 1  # middle plane of the chain
        rep = zappatic_report(arr, inc)
        assert rep.is_zappatic and rep.r_counts == {3: 1}

    def test_r3_chain_needs_no_rank(self):
        # the chain <e0,e1,e2> - <e1,e2,e3> - <e2,e3,e4> through e2, listed
        # with its middle plane first: its span is forced, so it is R_3
        # with no rank of the stacked bases
        def pl(*coords):
            return Subspace(4, [[1 if j == k else 0 for j in range(5)] for k in coords])

        arr = Arrangement(4, [pl(1, 2, 3), pl(0, 1, 2), pl(2, 3, 4)])
        inc = compute_incidence(arr)
        [sp] = inc.singular_points
        assert sp.point.coords == (0, 0, 1, 0, 0)
        with spy(linalg.rank) as ranked:
            t = classify_point(arr, inc, 0)
        assert ranked == []
        assert (t.tag, t.central, t.vertex_order) == ("R3", 0, (1, 0, 2))

    def test_chain_of_four_planes_in_p4_flagged(self):
        arr = chain_of_four_in_p4()
        inc = compute_incidence(arr)
        [sp] = inc.singular_points
        assert sp.local_edges == ((0, 1), (1, 2), (2, 3))
        t = classify_point(arr, inc, 0)
        assert (t.kind, t.n, t.reason) == ("NonZappatic", 4, "span too small")

    def test_report_grown_from_base_reclassifies_touched_points(self):
        # the R_3 chain <e0,e1,e2>, <e0,e2,e3>, <e0,e3,e4> of P^6 and a plane
        # <e0,e5,e6> that meets each of them in e0 alone: the point keeps
        # its local edges but gains a plane, so it is classified again and
        # its local graph is no longer connected
        def pl(*coords):
            return Subspace(6, [[1 if j == k else 0 for j in range(7)] for k in coords])

        old = Arrangement(6, [pl(0, 1, 2), pl(0, 2, 3), pl(0, 3, 4)])
        old_inc = compute_incidence(old)
        old_report = zappatic_report(old, old_inc)
        assert old_report.r_counts == {3: 1}
        arr = Arrangement(6, old.planes + (pl(0, 5, 6),))
        inc = compute_incidence(arr, old_inc)
        assert inc.singular_points[0].local_edges == old_inc.singular_points[0].local_edges
        rep = zappatic_report(arr, inc, (old_inc, old_report))
        assert rep == zappatic_report(arr, inc)
        assert rep.types[0].reason == "local graph not chain/fork/cycle"
        # an arrangement grown by nothing keeps every type
        assert zappatic_report(old, old_inc, (old_inc, old_report)) == old_report

    def test_cyclic_triple_in_p3_is_e3(self):
        rep = zappatic_report(cyclic_triple_in_p3())
        assert rep.is_zappatic and rep.f_counts == {3: 1}

    def test_span_too_small_fork_flagged(self):
        # star of four planes through e0 that spans only P^4 (an S_4 cone
        # needs P^5): graph shape passes, the span test must reject it
        center = plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 4)
        leaf1 = plane([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], 4)
        leaf2 = plane([[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 1]], 4)
        leaf3 = plane([[1, 0, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 0, 1, 1]], 4)
        rep = zappatic_report(Arrangement(4, [center, leaf1, leaf2, leaf3]))
        assert not rep.is_zappatic
        assert any("span too small" in v for v in rep.violations)

    def test_report_flags_line_on_three_planes(self):
        # three planes of P^4 through the line <e0, e1>
        l = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
        a = plane(l + [[0, 0, 1, 0, 0]], 4)
        b = plane(l + [[0, 0, 0, 1, 0]], 4)
        c = plane(l + [[0, 0, 0, 0, 1]], 4)
        rep = zappatic_report(Arrangement(4, [a, b, c]))
        assert not rep.is_zappatic
        assert any("lies on 3 planes" in v for v in rep.violations)
        # a fourth plane through the line: each of the six pairs is flagged
        d = plane(l + [[0, 0, 1, 1, 1]], 4)
        rep = zappatic_report(Arrangement(4, [a, b, c, d]))
        flagged = [v for v in rep.violations if "lies on" in v]
        assert flagged == [
            f"double line of planes ({i},{j}) lies on 4 planes"
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        ]


def test_graph_shape_matches_the_union_find_reference():
    """_graph_shape against the classifier it replaced, on every edge list
    over at most six vertices: each edge written low-high, each written
    high-low, and with its first edge repeated.  The labels are not
    positions and are listed out of order, so the ends, a cycle's start
    and a fork's leaves are found by value."""
    labels = [7, 2, 11, 0, 5, 13]
    shapes = Counter()
    for n in range(len(labels) + 1):
        vertices = labels[:n]
        pairs = list(combinations(sorted(vertices), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            for listed in (edges, [(b, a) for a, b in edges], edges[:1] + edges):
                got = _graph_shape(vertices, listed)
                assert got == graph_shape(vertices, listed), listed
                shapes[got and got[0]] += 1
    # labelled paths, cycles and stars on 2..6 vertices, each listed twice
    assert shapes["chain"] == 2 * sum(factorial(n) // 2 for n in range(2, 7))
    assert shapes["cycle"] == 2 * sum(factorial(n - 1) // 2 for n in range(3, 7))
    assert shapes["fork"] == 2 * sum(n for n in range(4, 7))


class TestProjectiveInvariance:
    def test_classification_stable_under_coordinate_change(self):
        def pl(i):
            rows = [[1 if j == k else 0 for j in range(5)] for k in (i, i + 1, i + 2)]
            return Subspace(4, rows)

        arr = Arrangement(4, [pl(0), pl(1), pl(2)])
        base = zappatic_report(arr)
        for m in coordinate_changes(4, seed=19, bound=5):
            rep = zappatic_report(moved(arr, m))
            assert rep.is_zappatic == base.is_zappatic
            assert rep.r_counts == base.r_counts

    def test_cycle_family_stable_under_coordinate_change(self):
        arr = cycle_planes(5).arrangement
        for m in coordinate_changes(arr.ambient_dim, seed=31, bound=4):
            rep = zappatic_report(moved(arr, m))
            assert rep.is_zappatic and rep.r_counts == {3: 5}

    @pytest.mark.parametrize("make,expected", [
        pytest.param(lambda: build_X(11, 3, 0).arrangement, {"R3": 7, "S4": 4},
                     id="S4-points-of-X(11,3)"),
        pytest.param(cyclic_triple_in_p3, {"E3": 1}, id="E3-triple"),
        pytest.param(chain_of_four_in_p4, {"NonZappatic(span too small)": 1},
                     id="span-too-small-4-chain"),
    ])
    def test_ranked_spans_stable_under_coordinate_change(self, make, expected):
        """classify_point ranks the span of a fork, a 3-cycle or a chain of
        four, where an R_3 point's span is read off its local graph; each
        point keeps its type in every frame."""
        arr = make()
        assert tags(arr) == expected
        for m in coordinate_changes(arr.ambient_dim, seed=7, bound=3):
            assert tags(moved(arr, m)) == expected


def relabelled(graph, name):
    """The dual graph with vertex x named name[x], as its vertex count, its
    sorted edges and the multisets of its 2-cells, open faces and angles,
    each cell the sorted tuple of its edges' vertex pairs."""
    def pair(k):
        a, b = graph.edges[k]
        return tuple(sorted((name[a], name[b])))

    def cells(faces):
        return Counter(tuple(sorted(map(pair, face))) for face in faces)

    return (graph.num_vertices, sorted(map(pair, range(graph.num_edges))),
            cells(graph.two_cells), cells(graph.open_faces), cells(graph.angles))


def _coordinate(n, triples):
    return lambda: constructions._coordinate_planes(n, triples)


@pytest.mark.parametrize("seed, build", [
    (1, lambda: build_X(8, 2, 0)),
    (2, lambda: build_X(12, 3, 1)),
    (3, lambda: build_X(16, 4, 2)),
    (4, lambda: build_Y(13, 3, 0)),
    (5, lambda: build_Z(14, 4, 0)),
    (6, _coordinate(3, TETRAHEDRON)),
    (7, _coordinate(5, OCTAHEDRON)),
    (8, _coordinate(6, MOEBIUS_TORUS)),
    (9, _coordinate(19, _grid_torus_triangles(4, 5))),
], ids=["X(8,2)", "X(12,3)", "X(16,4)", "Y(13,3)", "Z(14,4)",
        "tetrahedron", "octahedron", "moebius_torus", "torus_4x5"])
def test_whole_pipeline_invariant_under_coordinate_change_and_plane_order(seed, build):
    """A random integer change of coordinates fills every support, so the
    moved copy takes the dense route through every sparse shortcut, and a
    random plane order changes the side each meet reduces and which pairs
    come first.  The copy has the original's answers: whether it is
    Zappatic, its violations, its point types, the invariants and homology
    of its dual complex, that complex itself, up to the plane order, and
    its double lines, each the image of the original's."""
    assert_invariant_when_moved(build(), seed)


@pytest.mark.parametrize("d, g, s", GRID)
def test_whole_pipeline_invariant_on_the_acceptance_grid(d, g, s):
    """The same check on every acceptance-grid build, one seeded copy each."""
    assert_invariant_when_moved(build_X(d, g, s), 100 * d + 10 * g + s)


def assert_invariant_when_moved(res, seed):
    arr = res.arrangement
    [m] = coordinate_changes(arr.ambient_dim, seed=seed, bound=2, count=1)
    order = list(range(len(arr)))
    random.Random(seed).shuffle(order)
    copy = moved(arr, m, order)
    inc = compute_incidence(copy)
    report = zappatic_report(copy, inc)
    assert report.is_zappatic == res.report.is_zappatic
    assert len(report.violations) == len(res.report.violations)
    assert Counter(t.tag for t in report.types) == Counter(t.tag for t in res.report.types)
    graph = build_dual_graph(copy, inc, report)
    assert invariants_of(graph) == invariants_of(res.graph)
    position = {i: k for k, i in enumerate(order)}
    assert relabelled(graph, range(len(arr))) == relabelled(res.graph, position)
    # each double line of the copy is the image of the original's
    assert {(i, j): line for i, j, line in inc.double_lines} == {
        tuple(sorted((position[i], position[j]))): moved_subspace(line, m)
        for i, j, line in res.incidence.double_lines}


def test_r3_points_of_the_builds_span_a_p4():
    """Every R_3 point of the acceptance grid and the ledger builds, whose
    span classify_point no longer ranks, spans a P^4 by frac_rank."""
    results = [build_X(d, g, seed) for d, g, seed in GRID]
    results += [build() for build in LEDGER_CASES.values()]
    seen = 0
    for res in results:
        planes = res.arrangement.planes
        for sp, t in zip(res.incidence.singular_points, res.report.types):
            if t.tag == "R3":
                assert frac_rank([row for i in sp.incident_planes for row in planes[i].basis]) == 5
                seen += 1
    assert seen == sum(res.report.r_counts.get(3, 0) for res in results)
