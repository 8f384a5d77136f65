import contextlib
import io
from collections import Counter
from itertools import combinations

import pytest

from zappatic import cli, constructions, linalg
from zappatic.constructions import (
    attach_handle,
    build_X,
    build_Y,
    build_Z,
    chain_planes,
    cycle_from_chain,
    cycle_planes,
    first_disjoint_central_pair,
)
from zappatic.complexes import build_dual_graph, build_torus_complex
from zappatic.errors import GenericityError, RangeError
from zappatic.invariants import invariants_of
from zappatic.projective import (
    ProjPoint,
    Subspace,
    meet,
    quadric_conditions,
    span,
    span_subspaces,
)

from oracles import meet_first_disjoint_central_pair, verify_transversality
from spy import spy
from test_acceptance import GRID
from test_golden import LEDGER_CASES, MOEBIUS_TORUS, OCTAHEDRON, TETRAHEDRON


class TestChain:
    def test_d2_two_planes_one_line(self):
        res = chain_planes(2)
        assert len(res.arrangement) == 2
        assert res.num_edges == 1
        assert res.incidence.singular_points == ()
        assert res.report.is_zappatic

    def test_d6_counts(self):
        res = chain_planes(6)
        assert res.report.r_counts == {3: 4}
        assert res.num_edges == 5

    @pytest.mark.parametrize("d", range(2, 13))
    def test_sectional_genus_zero(self, d):
        res = chain_planes(d)
        inv = invariants_of(res.graph)
        assert inv.g == 0 and inv.chi == 1 and inv.p_omega == 0
        assert inv.K2_interval == (8, 8)
        assert res.report.r_counts.get(3, 0) == d - 2

    def test_range(self):
        with pytest.raises(RangeError):
            chain_planes(1)


class TestCycle:
    @pytest.mark.parametrize("d", range(5, 13))
    def test_counts_and_invariants(self, d):
        res = cycle_planes(d)
        assert res.report.r_counts == {3: d}
        assert len(res.incidence.singular_points) == d
        inv = invariants_of(res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (1, 0, 0)
        assert inv.K2_interval == (0, 0)

    def test_disjoint_pairs_iff_d_at_least_6(self):
        res5 = cycle_planes(5)
        arr5 = res5.arrangement
        assert all(
            meet(arr5.planes[i], arr5.planes[j]).dim != -1
            for i in range(5)
            for j in range(i + 1, 5)
        )
        res6 = cycle_planes(6)
        assert meet(res6.arrangement.planes[0], res6.arrangement.planes[3]).dim == -1

    def test_chordless_meets_are_points(self):
        arr = cycle_planes(5).arrangement
        assert meet(arr.planes[0], arr.planes[2]).dim == 0

    def test_range(self):
        with pytest.raises(RangeError):
            cycle_planes(4)


def test_base_planes_equal_their_reduced_unit_rows():
    """chain_planes and cycle_planes set each plane's canonical basis directly;
    reducing the plane's unit rows, as a Subspace does, gives the same basis
    and support."""

    def reduced(n, coords):
        return Subspace(n, [[1 if c == k else 0 for c in range(n + 1)] for k in coords])

    cases = [(chain_planes(d), [reduced(d + 1, (i, i + 1, i + 2)) for i in range(d)])
             for d in range(2, 41)]
    cases += [(cycle_planes(d), [reduced(d - 1, ((i - 1) % d, i, (i + 1) % d))
                                 for i in range(d)])
              for d in range(5, 41)]
    for res, old in cases:
        planes = res.arrangement.planes
        assert planes == tuple(old)
        assert [p.support for p in planes] == [p.support for p in old]


def _grid_torus_triangles(n, m):
    """The two triangles of each square of the n x m grid torus, on the
    vertices (i, j) -> i*m + j: a 6-cycle link at every vertex."""
    def v(i, j):
        return (i % n) * m + j % m

    return [t for i in range(n) for j in range(m) for t in (
        (v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 5), (20, 20)])
def test_coordinate_torus_equals_the_abstract_torus(n, m):
    """The coordinate planes of a triangulated torus in P^(nm-1), built as
    chains and cycles are, have nm E_6 points and the cell counts,
    invariants and homology of build_torus_complex(n, m).  Their planes are
    numbered as its vertices are, so the two complexes have the same edges
    and the same 2-cells, each cell read as its set of vertex pairs.  At
    20 x 20, 800 planes in P^399, all but 4,800 of the 319,600 plane pairs
    have disjoint supports and are not met."""
    res = constructions._coordinate_planes(n * m - 1, _grid_torus_triangles(n, m))
    assert res.report.is_zappatic
    assert (res.report.f_counts, res.report.r_counts, res.report.s_counts) == (
        {6: n * m}, {}, {})
    torus = build_torus_complex(n, m)
    assert invariants_of(res.graph) == invariants_of(torus)

    def cells(graph):
        return {frozenset(graph.edges[k] for k in cell) for cell in graph.two_cells}
    assert set(res.graph.edges) == set(torus.edges)
    assert cells(res.graph) == cells(torus)


CHAIN_8 = [(i, i + 1, i + 2) for i in range(8)]


@pytest.mark.parametrize("n, triples, chi, g, betti", [
    (3, TETRAHEDRON, 2, 3, (1, 0, 1)),
    (5, OCTAHEDRON, 2, 5, (1, 0, 1)),
    (6, MOEBIUS_TORUS, 0, 8, (1, 2, 1)),
], ids=["tetrahedron", "octahedron", "moebius_torus"])
def test_named_triangulations(n, triples, chi, g, betti):
    """The coordinate planes of the tetrahedron (a quartic K3 limit in P^3),
    the octahedron (a degree-8 K3 in P^5) and the 7-vertex Moebius torus
    (in P^6) put an E_m point at each vertex of degree m, and have K^2 = 0
    and p_omega = 1, as their K3 and abelian smoothings do."""
    res = constructions._coordinate_planes(n, triples)
    assert res.report.is_zappatic
    assert (res.arrangement.ambient_dim, len(res.arrangement)) == (n, len(triples))
    degree = Counter(c for t in triples for c in t)
    points = res.incidence.singular_points
    assert [(t.kind, t.n) for t in res.report.types] == [
        ("E", degree[sp.point.coords.index(1)]) for sp in points]
    assert len(points) == n + 1
    inv = invariants_of(res.graph)
    assert (inv.chi, inv.p_omega, inv.K2_interval, inv.g) == (chi, 1, (0, 0), g)
    assert (inv.homology.h0, inv.homology.h1, inv.homology.h2) == betti


def _link_tags(triples):
    """The tag each vertex's link gives it, for links of at least three
    triangles: E_n for a cycle of n, R_n for a path of n (its two ends are
    in one triangle each)."""
    tags = {}
    for v in sorted({c for t in triples for c in t}):
        link = [[c for c in t if c != v] for t in triples if v in t]
        degree = Counter(c for edge in link for c in edge)
        assert set(degree.values()) <= {1, 2}  # a path or a cycle
        if len(link) >= 3:
            tags[v] = ("E" if 1 not in degree.values() else "R") + str(len(link))
    return tags


HEXAGON_IN_P9 = [(0, i, i % 6 + 1) for i in range(1, 7)] + [
    (1, 2, 7), (2, 3, 7), (3, 4, 8), (4, 5, 8), (5, 6, 9), (6, 1, 9)]


@pytest.mark.parametrize("n, triples, tags", [
    *[(k + 1, [(0, i, i + 1) for i in range(1, k + 1)], {0: f"R{k}"}) for k in range(3, 8)],
    (9, HEXAGON_IN_P9, {0: "E6", 1: "R4", 2: "E4", 3: "R4", 4: "E4", 5: "R4", 6: "E4"}),
    (9, CHAIN_8, {v: "R3" for v in range(2, 8)}),
], ids=[*(f"fan{k}" for k in range(3, 8)), "hexagon", "chain8"])
def test_point_types_read_off_the_links(n, triples, tags):
    """Each singular point is the coordinate point e_v of a vertex v in at
    least three triangles: R_n when v's link is a path of n triangles, E_n
    when it is a cycle of n."""
    res = constructions._coordinate_planes(n, triples)
    got = {sp.point.coords.index(1): t.tag
           for sp, t in zip(res.incidence.singular_points, res.report.types)}
    assert all(sum(map(abs, sp.point.coords)) == 1 for sp in res.incidence.singular_points)
    assert got == _link_tags(triples) == tags


@pytest.mark.parametrize("n, triples, f0, f1", [
    (3, TETRAHEDRON, 4, 6),
    (5, OCTAHEDRON, 6, 12),
    (6, MOEBIUS_TORUS, 7, 21),
    (8, _grid_torus_triangles(3, 3), 9, 27),
    (11, _grid_torus_triangles(3, 4), 12, 36),
    (9, CHAIN_8, 10, 17),
    (6, [((i - 1) % 7, i, (i + 1) % 7) for i in range(7)], 7, 14),
], ids=["tetrahedron", "octahedron", "moebius_torus", "torus3x3", "torus3x4",
        "chain8", "cycle7"])
def test_quadric_hilbert_function_is_the_face_count(n, triples, f0, f1):
    """h(2) of the union of coordinate planes, the rank of the conditions
    for a quadric to contain every plane, is f_0 + f_1: one for each vertex
    and each edge of the triangulation."""
    res = constructions._coordinate_planes(n, triples)
    edges = {pair for t in triples for pair in combinations(sorted(t), 2)}
    assert (len({c for t in triples for c in t}), len(edges)) == (f0, f1)
    _, rows = quadric_conditions([], res.arrangement.planes, n)
    assert linalg.rank(rows) == f0 + f1


class TestAttachHandle:
    def test_cycle6_handle_gives_x82_profile(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=11)
        assert len(out.arrangement) == 8
        assert out.report.r_counts == {3: 6}
        assert out.report.s_counts == {4: 2}
        inv = invariants_of(out.graph)
        assert inv.g == 2

    def test_handle_transversality_witness(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=11)
        rec = out.attachments[-1]
        tr = verify_transversality(res.arrangement, rec.span_pi, rec.lines)
        assert tr.passed
        assert {k for k, _ in tr.positive_dims} == {0, 3}

    def test_non_disjoint_planes_rejected(self):
        res = cycle_planes(6)
        with pytest.raises(RangeError, match="not disjoint"):
            attach_handle(res, 0, 1, seed=1)

    def test_touching_planes_rejected_in_either_order(self):
        res = build_X(10, 3, seed=1)
        touching = res.incidence.double_lines + res.incidence.point_meets
        assert res.incidence.point_meets
        for i, j, _ in touching:
            for a, b in ((i, j), (j, i)):
                with pytest.raises(RangeError, match="not disjoint"):
                    attach_handle(res, a, b, seed=1)

    def test_same_plane_rejected(self):
        res = cycle_planes(6)
        with pytest.raises(RangeError, match="not disjoint"):
            attach_handle(res, 0, 0, seed=1)

    def test_non_central_plane_rejected(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=3)
        # the anchors of the first handle are S_4 points now; their planes are
        # no longer R_3 central
        with pytest.raises(RangeError, match="central"):
            attach_handle(out, 0, 3, seed=4)


class TestBuildX:
    @pytest.mark.parametrize(
        "d,g", [(8, 2), (9, 2), (10, 3), (12, 4), (12, 2), (11, 3)]
    )
    def test_profile(self, d, g):
        res = build_X(d, g, seed=5)
        rep = res.report
        assert len(res.arrangement) == d
        assert rep.r_counts == {3: d - 2 * g + 2}
        assert rep.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (g, 1 - g, 0)
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_g0_g1_delegate(self):
        assert build_X(7, 0).family == "chain"
        assert build_X(7, 1).family == "cycle"

    def test_degenerate_ranges(self):
        with pytest.raises(RangeError, match="2g\\+4"):
            build_X(2 * 3 + 3, 3, seed=0)  # d = 2g+3 is out of range
        with pytest.raises(RangeError):
            build_X(4, 1)

    def test_determinism(self):
        a = build_X(10, 3, seed=77)
        b = build_X(10, 3, seed=77)
        assert a.arrangement == b.arrangement
        assert [r.lines for r in a.attachments] == [r.lines for r in b.attachments]

    def test_different_seed_different_lines(self):
        a = build_X(8, 2, seed=1)
        b = build_X(8, 2, seed=2)
        assert a.attachments[0].lines != b.attachments[0].lines
        # but identical combinatorics
        assert a.report.r_counts == b.report.r_counts

    def test_discrepancy_note_emitted(self):
        res = build_X(8, 2, seed=1)
        assert any("3g+6+c" in note for note in res.discrepancies)
        assert any(f"e = d+g-1 = {8 + 2 - 1}" in note for note in res.discrepancies)

    def test_disjoint_central_pair_exists_in_result(self):
        res = build_X(10, 3, seed=9)
        assert first_disjoint_central_pair(res) is not None


class TestPlaneContacts:
    def test_disjoint_pair_matches_plane_meets_on_ledger_builds(self):
        """Every pair the ledger builds ask for, and the pair of each result,
        agrees with the pair found by meeting the planes."""
        with spy(first_disjoint_central_pair) as asked:
            for build in LEDGER_CASES.values():
                constructions.first_disjoint_central_pair(build())  # through the spied reference
        for c in asked:
            assert c.result == meet_first_disjoint_central_pair(c.args[0])
        pairs = {c.result for c in asked}
        assert None in pairs and len(pairs) > 2


class TestAttachmentRules:
    """The facts behind what the quadric attachment tolerates."""

    def test_no_third_plane_through_both_handle_anchors(self):
        """A plane meets the handle's 3-space in the anchor line only if it
        holds both anchors.  The chosen planes are disjoint, so each holds
        one; on the grid and the ledger builds no other plane holds both,
        so the anchor-line rule never fires for X."""
        with spy(attach_handle) as calls:
            for d, g, seed in GRID:
                build_X(d, g, seed)
            for build in LEDGER_CASES.values():
                build()
        for c in calls:
            result, i, j, _seed = c.args
            planes = result.arrangement.planes
            anchors = [constructions._r3_centres(result)[k] for k in (i, j)]
            assert not any(all(p.contains_point(a) for a in anchors) for p in planes)
        # g - 1 handles per grid build, and 2 + 3 for X_10_3_1 and X_12_4_1
        assert len(calls) == sum(g - 1 for _, g, _ in GRID) + 2 + 3

    @pytest.mark.parametrize("build", [
        *LEDGER_CASES.values(),
        lambda: build_Y(13, 3, 1),
        lambda: build_Y(11, 2, 5),
        *(lambda d=d: cycle_from_chain(d, 3) for d in range(5, 10)),
    ])
    def test_free_lines_avoid_the_singular_points_of_their_plane(self, build):
        res = build()
        closures = [r for r in res.attachments if r.anchor_points == (None, None)]
        assert len(closures) == (res.family in ("Y", "cycle_from_chain"))
        for rec in closures:
            chain = chain_planes(rec.chosen_planes[1] + 1)
            for plane, line in zip(rec.chosen_planes, rec.lines):
                avoid = [sp.point for sp in chain.incidence.singular_points
                         if plane in sp.incident_planes]
                assert avoid
                assert not any(line.contains_point(p) for p in avoid)


class TestLineSampler:
    """``_line_in`` on scripted draws: no build samples a free line through a
    singular point, so the avoid rule is exercised here."""

    PLANE = Subspace(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])

    def scripted(self, monkeypatch, coords):
        draws = iter([ProjPoint(c) for c in coords])
        used = []

        def next_point(sub, rng):
            assert sub == self.PLANE
            used.append(next(draws))
            return used[-1]

        monkeypatch.setattr(constructions, "_random_point_in", next_point)
        return used

    def test_free_line_retries_past_an_avoid_point(self, monkeypatch):
        used = self.scripted(monkeypatch, [
            [1, 0, 0, 0], [0, 1, 0, 0],  # spans a line through [1, 1, 0, 0]
            [1, 0, 0, 0], [0, 0, 1, 0],
        ])
        avoid = [ProjPoint([1, 1, 0, 0])]
        line = constructions._line_in(self.PLANE, None, avoid, rng=None)
        assert line == span(used[2:], 3)
        assert len(used) == 4  # two draws per try
        assert not line.contains_point(avoid[0])

    def test_anchored_line_takes_one_draw_per_try(self, monkeypatch):
        anchor = ProjPoint([1, 0, 0, 0])
        used = self.scripted(monkeypatch, [
            [2, 0, 0, 0],  # the anchor again: no line
            [0, 1, 0, 0],
        ])
        line = constructions._line_in(self.PLANE, anchor, (), rng=None)
        assert line == span([anchor, used[1]], 3)
        assert len(used) == 2


class TestCycleFromChain:
    def test_d5_exhibits_extra_line_in_central_plane(self):
        res = cycle_from_chain(5, seed=21)
        assert res.report.r_counts == {3: 5}
        rec = res.attachments[0]
        base = chain_planes(3).arrangement
        extra = meet(rec.span_pi, base.planes[1])
        assert extra.dim == 1  # forced line in the central plane
        tr = verify_transversality(base, rec.span_pi, list(rec.lines) + [extra])
        assert tr.passed
        assert len(tr.positive_dims) == 3

    @pytest.mark.parametrize("d", [6, 7, 9])
    def test_d_at_least_6_meets_chain_in_lines_only_at_ends(self, d):
        res = cycle_from_chain(d, seed=22)
        assert res.report.r_counts == {3: d}
        rec = res.attachments[0]
        base = chain_planes(d - 2).arrangement
        tr = verify_transversality(base, rec.span_pi, rec.lines)
        assert tr.passed
        assert {k for k, _ in tr.positive_dims} == {0, d - 3}

    def test_matches_cycle_profile(self):
        res = cycle_from_chain(7, seed=23)
        inv = invariants_of(res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (1, 0, 0)


class TestTransversalityReport:
    def test_flags_contained_plane(self):
        res = chain_planes(4)
        arr = res.arrangement
        # a 3-space containing plane 0 entirely
        pi = span_subspaces(
            [arr.planes[0], arr.planes[1]], arr.ambient_dim
        )
        assert pi.dim == 3
        tr = verify_transversality(arr, pi, [])
        assert not tr.passed
        assert 0 in tr.offending

    def test_requires_dim3(self):
        res = chain_planes(4)
        with pytest.raises(RangeError):
            verify_transversality(res.arrangement, res.arrangement.planes[0], [])


class TestBuildY:
    @pytest.mark.parametrize("d,g", [(9, 2), (13, 3), (10, 2)])
    def test_profile(self, d, g):
        res = build_Y(d, g, seed=3)
        assert len(res.arrangement) == d
        assert res.report.r_counts == {3: d - 2 * g + 2}
        assert res.report.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(res.graph)
        assert inv.g == g
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_fig_example_13_3(self):
        res = build_Y(13, 3, seed=1)
        assert res.report.r_counts == {3: 9}
        assert res.report.s_counts == {4: 4}
        assert res.num_edges == 15

    def test_range(self):
        with pytest.raises(RangeError, match="4g"):
            build_Y(12, 3, seed=0)
        with pytest.raises(RangeError):
            build_Y(9, 1, seed=0)


class TestBuildZ:
    def test_base_case_is_cycle(self):
        res = build_Z(5, 1, seed=0)
        assert res.family == "Z"
        assert res.report.r_counts == {3: 5}
        assert any("d-2g+1" in n for n in res.discrepancies)

    @pytest.mark.parametrize("d,g", [(8, 2), (11, 3), (9, 2)])
    def test_profile(self, d, g):
        res = build_Z(d, g, seed=6)
        assert len(res.arrangement) == d
        assert res.report.r_counts == {3: d - 2 * g + 2}
        assert res.report.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(res.graph)
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_8_2_discrepancy_and_edges(self):
        res = build_Z(8, 2, seed=2)
        assert res.num_edges == 9
        assert any("d-2g+1" in n and "derived" in n for n in res.discrepancies)

    def test_range(self):
        with pytest.raises(RangeError, match="3g\\+2"):
            build_Z(7, 2, seed=0)


class TestFamilyAgreement:
    @pytest.mark.parametrize("d,g", [(9, 2), (13, 3)])
    def test_x_y_z_share_invariant_profile(self, d, g):
        rx = build_X(d, g, seed=4)
        ry = build_Y(d, g, seed=4)
        rz = build_Z(d, g, seed=4)
        ix = invariants_of(rx.graph)
        iy = invariants_of(ry.graph)
        iz = invariants_of(rz.graph)
        assert ix == iy == iz


def _family_zoo():
    yield chain_planes(9)
    yield cycle_planes(8)
    yield build_X(12, 3, seed=8)
    yield build_Y(13, 3, seed=8)
    yield build_Z(11, 3, seed=8)


class TestCrossModuleConsistency:
    def test_double_lines_lie_on_exactly_two_planes(self):
        for res in _family_zoo():
            arr = res.arrangement
            for i, j, line in res.incidence.double_lines:
                on = [k for k in range(len(arr)) if arr.planes[k].contains(line)]
                assert on == sorted((i, j))

    def test_local_graphs_are_subgraphs_of_dual_graph(self):
        for res in _family_zoo():
            edges = set(res.graph.edges)
            for sp in res.incidence.singular_points:
                for a, b in sp.local_edges:
                    assert (min(a, b), max(a, b)) in edges
                    assert a in sp.incident_planes and b in sp.incident_planes


class TestLazyGraph:
    """A result builds its dual graph when the graph is first read."""

    def test_intermediates_carry_their_own_graph(self):
        steps = (attach_handle, constructions._attach_pair, cycle_from_chain, constructions._z_step)
        with spy(*steps) as calls:
            build_X(14, 4, 1)
            build_Y(13, 3, 1)
            build_Z(14, 4, 2)
            for d in range(5, 10):
                constructions.cycle_from_chain(d, 3)  # through the spied reference
        # each handle and each cycle closure is also an _attach_pair
        assert len(calls) == 2 * 3 + (2 + 2) + 3 + 2 * 5
        for res in (c.result for c in calls):
            assert res.graph == build_dual_graph(res.arrangement, res.incidence, res.report)
            assert res.num_edges == res.graph.num_edges

    @pytest.mark.parametrize("argv", [
        ["--family", "X", "--d", "12", "--g", "4"],
        ["--family", "Y", "--d", "13", "--g", "3"],
        ["--family", "Z", "--d", "14", "--g", "4"],
        ["--family", "chain", "--d", "6"],
        ["--family", "cycle", "--d", "7"],
    ])
    def test_one_dual_graph_per_construct(self, argv, tmp_path):
        out = str(tmp_path / "out.json")
        with spy(build_dual_graph) as calls, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["construct", *argv, "--seed", "1", "--out", out]) == 0
        assert len(calls) == 1


def _assert_records_in_ambient(res):
    n = res.arrangement.ambient_dim
    for rec in res.attachments:
        anchors = [a for a in rec.anchor_points if a is not None]
        parts = [*rec.lines, rec.span_pi, *anchors]
        assert [p.ambient_dim for p in parts] == [n] * len(parts), (res.family, rec)


class TestOneAmbient:
    """Every attachment record lives in the ambient of its result."""

    def test_grid(self):
        for d, g, seed in GRID:
            _assert_records_in_ambient(build_X(d, g, seed))

    def test_family_zoo(self):
        for res in _family_zoo():
            _assert_records_in_ambient(res)

    @pytest.mark.parametrize("name", sorted(LEDGER_CASES))
    def test_ledger_builds(self, name):
        _assert_records_in_ambient(LEDGER_CASES[name]())

    @pytest.mark.parametrize("g", range(2, 6))
    def test_build_Z(self, g):
        for d in range(3 * g + 2, 3 * g + 6):
            for seed in range(3):
                _assert_records_in_ambient(build_Z(d, g, seed))

    def test_cycle_from_chain(self):
        for d in range(5, 10):
            for seed in range(3):
                _assert_records_in_ambient(cycle_from_chain(d, seed))


class TestGenericityExhaustion:
    """With no retries allowed, every attachment path gives up with a
    GenericityError that names the chosen planes."""

    @pytest.fixture(autouse=True)
    def no_retries(self, monkeypatch):
        monkeypatch.setattr(constructions, "RETRY_CAP", 0)

    def test_attach_handle(self):
        base = cycle_planes(6)
        i, j = first_disjoint_central_pair(base)
        with pytest.raises(GenericityError, match=rf"planes \({i}, ?{j}\)"):
            attach_handle(base, i, j, seed=0)

    def test_build_Y(self):
        # the outermost pair joins the end planes 0 and 4 of the 5-chain
        with pytest.raises(GenericityError, match=r"planes \(0, ?4\)"):
            build_Y(9, 2, seed=0)

    def test_build_Z(self):
        i, j = first_disjoint_central_pair(cycle_planes(6))
        with pytest.raises(GenericityError, match=rf"planes \({i}, ?{j}\)"):
            build_Z(9, 2, seed=0)

    def test_cycle_from_chain(self):
        with pytest.raises(GenericityError, match=r"planes \(0, ?3\)"):
            cycle_from_chain(6, seed=0)
