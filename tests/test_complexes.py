from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic import cli, serialize
from zappatic.arrangement import Arrangement, compute_incidence, zappatic_report
from zappatic.complexes import (
    DualGraph,
    _closed_walk,
    build_dual_graph,
    build_torus_complex,
    count_components,
    homology,
    to_dot,
)
from zappatic.errors import RangeError
from zappatic.invariants import invariants_of
from zappatic.projective import Subspace

from oracles import dense_homology, dfs_components, frac_rank, walk_signs


def betti(graph):
    h = homology(graph)
    return (h.h0, h.h1, h.h2)


def closed_walk_signs(graph, cell):
    """The signs homology gives a cell's edges: +1 where its closed walk
    leaves the edge from the edge's first end."""
    walk = _closed_walk(graph, cell)
    return [1 if graph.edges[k][0] == at else -1 for k, at in zip(cell, walk)]


def path_graph(n):
    return DualGraph(n, tuple((i, i + 1) for i in range(n - 1)))

def cycle_graph(n):
    return DualGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


class TestHomology:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_path_graph(self, n):
        h = homology(path_graph(n))
        assert (h.h0, h.h1, h.h2) == (1, 0, 0) and h.euler == 1

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_cycle_graph_no_two_cells(self, n):
        h = homology(cycle_graph(n))
        assert (h.h0, h.h1, h.h2) == (1, 1, 0) and h.euler == 0

    def test_triangle_with_two_cell(self):
        g = DualGraph(3, ((0, 1), (1, 2), (0, 2)), two_cells=((0, 1, 2),))
        assert betti(g) == (1, 0, 0)

    def test_disconnected_components(self):
        g = DualGraph(4, ((0, 1), (2, 3)))
        assert betti(g) == (2, 0, 0)

    def test_h2_zero_without_two_cells(self):
        g = DualGraph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))
        assert homology(g).h2 == 0

    def test_torus_2_2_against_independent_boundary_oracle(self):
        g = build_torus_complex(2, 2)
        v, e, f = g.num_vertices, g.num_edges, g.num_faces
        assert (v, e, f) == (8, 12, 4)
        # independent route: build the boundary matrices here and rank them
        # with the Fraction oracle
        d1 = [[0] * e for _ in range(v)]
        for k, (a, b) in enumerate(g.edges):
            d1[a][k] -= 1
            d1[b][k] += 1
        d2 = [[0] * f for _ in range(e)]
        for c, cell in enumerate(g.two_cells):
            for k, s in zip(cell, closed_walk_signs(g, cell)):
                d2[k][c] += s
        # boundary of a boundary is zero
        prod = [
            [sum(d1[i][k] * d2[k][c] for k in range(e)) for c in range(f)]
            for i in range(v)
        ]
        assert all(all(x == 0 for x in row) for row in prod)
        r1, r2 = frac_rank(d1), frac_rank(d2)
        assert (v - r1, e - r1 - r2, f - r2) == (1, 2, 1)
        assert betti(g) == (1, 2, 1)


@st.composite
def dual_graphs(draw):
    """Graphs with loops, repeated edges, isolated vertices and several
    components, plus 2-cells along closed walks (each on fresh edges, some
    attached twice)."""
    v = draw(st.integers(0, 7))
    if v == 0:
        return DualGraph(0, ())
    vertex = st.integers(0, v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    cells = []
    for walk in draw(st.lists(st.lists(vertex, min_size=2, max_size=5), max_size=3)):
        cell = tuple(range(len(edges), len(edges) + len(walk)))
        edges += zip(walk, walk[1:] + walk[:1])
        cells += [cell] * draw(st.integers(1, 2))
    return DualGraph(v, tuple(edges), two_cells=tuple(cells))


@st.composite
def complexes_on_shared_edges(draw):
    """2-cells along closed walks that reuse edges: cells share edges, and a
    cell that runs along an edge twice has d2 entry +-2 or 0 there."""
    v = draw(st.integers(1, 5))
    vertex = st.integers(0, v - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    cells = []
    for walk in draw(st.lists(st.lists(vertex, min_size=2, max_size=6), max_size=5)):
        cell = []
        for a, b in zip(walk, walk[1:] + walk[:1]):
            old = [k for k, e in enumerate(edges) if sorted(e) == sorted((a, b))]
            if old and draw(st.booleans()):
                cell.append(draw(st.sampled_from(old)))
            else:
                cell.append(len(edges))
                edges.append((a, b))
        cells.append(tuple(cell))
    return DualGraph(v, tuple(edges), two_cells=tuple(cells))


@st.composite
def open_walk_cells(draw):
    """One cell along an open walk: consecutive edges chain, each listed in
    either direction and some reused, and the last does not return to the
    start."""
    v = draw(st.integers(2, 5))
    vertex = st.integers(0, v - 1)
    walk = draw(st.lists(vertex, min_size=3, max_size=7).filter(lambda w: w[0] != w[-1]))
    edges, cell = [], []
    for a, b in zip(walk, walk[1:]):
        old = [k for k, e in enumerate(edges) if sorted(e) == sorted((a, b))]
        if old and draw(st.booleans()):
            cell.append(draw(st.sampled_from(old)))
        else:
            cell.append(len(edges))
            edges.append((a, b) if draw(st.booleans()) else (b, a))
    return DualGraph(v, tuple(edges), two_cells=(tuple(cell),))


class TestClosedWalk:
    """Every closed walk is oriented, whichever end of its first edge it
    starts from, and every open walk is refused."""

    def test_walk_back_through_its_start_vertex(self):
        # 1 -> 0 -> 2 -> 0 -> 1: starting at 0, the smaller shared vertex,
        # does not chain, starting at 1 does
        g = DualGraph(3, ((1, 0), (0, 2), (2, 0), (0, 1)), two_cells=((0, 1, 2, 3),))
        assert _closed_walk(g, g.two_cells[0]) == [1, 0, 2, 0, 1]
        assert closed_walk_signs(g, g.two_cells[0]) == [1, 1, 1, 1]
        assert betti(g) == dense_homology(g) == (1, 1, 0)
        assert "  /* face: v1 v0 v2 v0 */\n" in to_dot(g)

    def test_open_walk_is_refused(self):
        # 0 -> 1 -> 2 -> 0 -> 3 chains but ends at 3: boundary e_3 - e_0
        g = DualGraph(4, ((0, 1), (1, 2), (2, 0), (0, 3)), two_cells=((0, 1, 2, 3),))
        for f in (homology, to_dot, dense_homology):
            with pytest.raises(RangeError, match="not a closed walk"):
                f(g)

    @pytest.mark.parametrize("cell", [(), (0,)])
    def test_fewer_than_two_edges_is_refused(self, cell):
        g = DualGraph(1, ((0, 0),), two_cells=(cell,))
        with pytest.raises(RangeError, match="at least two edges"):
            homology(g)

    @settings(max_examples=400)
    @given(open_walk_cells())
    def test_every_open_walk_is_refused(self, graph):
        for f in (homology, to_dot, dense_homology):
            with pytest.raises(RangeError, match="not a closed walk"):
                f(graph)

    @settings(max_examples=400)
    @given(st.one_of(dual_graphs(), complexes_on_shared_edges()))
    def test_signs_agree_with_every_direction_search(self, graph):
        """A cell whose walk closes from both ends of its first edge runs
        back and forth on one pair of vertices, and the two orientations
        are opposite; otherwise the signs are the oracle's."""
        for cell in graph.two_cells:
            want = walk_signs(graph.edges, cell)
            assert closed_walk_signs(graph, cell) in (want, [-s for s in want])


class TestHomologyAgainstDenseBoundaries:
    """h0 from connected components against the dense rank of d1, and the
    sparse rank of d2 against its dense rank.  Every cell the strategies
    draw is a closed walk, so neither side may refuse one."""

    @settings(max_examples=400)
    @given(dual_graphs())
    def test_random_graphs(self, graph):
        assert betti(graph) == dense_homology(graph)

    @settings(max_examples=400)
    @given(complexes_on_shared_edges())
    def test_cells_on_shared_edges(self, graph):
        assert betti(graph) == dense_homology(graph)

    @settings(max_examples=400)
    @given(st.one_of(dual_graphs(), complexes_on_shared_edges()))
    def test_each_cell_boundary_is_a_cycle(self, graph):
        """d1 d2 = 0: the signed edges of each cell have no boundary.  The
        ranks above cannot see a wrong sign on a cell whose edges are its
        own."""
        for cell in graph.two_cells:
            ends = Counter()
            for k, s in zip(cell, closed_walk_signs(graph, cell)):
                a, b = graph.edges[k]
                ends[a] -= s
                ends[b] += s
            assert not any(ends.values())

    @settings(max_examples=400)
    @given(dual_graphs())
    def test_components_match_depth_first_search(self, graph):
        n = graph.num_vertices
        assert count_components(range(n), graph.edges) == dfs_components(n, graph.edges)

    def test_labels_need_not_be_contiguous(self):
        assert count_components([40, 7, 12, 3], [(40, 12), (7, 7)]) == 3
        assert count_components([40, 7, 12, 3], [(40, 12), (7, 3), (3, 40)]) == 1
        assert count_components([], []) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_torus(self, n, m):
        g = build_torus_complex(n, m)
        assert betti(g) == dense_homology(g) == (1, 2, 1)


class TestTorusComplex:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_counts_and_homology(self, n, m):
        g = build_torus_complex(n, m)
        assert g.num_vertices == 2 * n * m
        assert g.num_edges == 3 * n * m
        assert g.num_faces == n * m
        assert g.face_counts() == {6: n * m}
        assert betti(g) == (1, 2, 1)
        assert homology(g).euler == 0

    def test_rejects_small_grids(self):
        with pytest.raises(RangeError):
            build_torus_complex(1, 3)
        with pytest.raises(RangeError):
            build_torus_complex(2, 1)


def cone_over_cycle(n):
    """The planes <e_0, e_i, e_i+1>, i = 1..n cyclically, of P^n: the cone
    over an n-cycle of lines, with one E_n point at e_0."""
    def e(i):
        return [int(k == i) for k in range(n + 1)]

    return Arrangement(n, [Subspace(n, [e(0), e(i), e(i % n + 1)]) for i in range(1, n + 1)])


@pytest.mark.parametrize("n", range(3, 10))
class TestConeOverCycle:
    """The E_n point makes the dual graph's one 2-cell.  The cone smooths to
    a degree-n del Pezzo surface: g = 1, chi = 1, p_omega = 0, K^2 = n."""

    def test_dual_graph_and_invariants(self, n):
        arr = cone_over_cycle(n)
        inc = compute_incidence(arr)
        report = zappatic_report(arr, inc)
        assert [t.tag for t in report.types] == [f"E{n}"]
        graph = build_dual_graph(arr, inc, report)
        assert len(graph.two_cells) == 1 and graph.face_counts() == {n: 1}
        assert betti(graph) == (1, 0, 0)
        inv = invariants_of(graph)
        assert (inv.g, inv.chi, inv.p_omega, inv.K2_interval) == (1, 1, 0, (n, n))
        assert sum("/* face: " in line for line in to_dot(graph).splitlines()) == 1

    def test_invariants_command(self, n, tmp_path, capsys):
        path = tmp_path / "cone.json"
        serialize.write_arrangement(path, cone_over_cycle(n))
        assert cli.main(["invariants", str(path), "--smooth"]) == 0
        assert capsys.readouterr().out == (
            f"v={n} e={n} g=1 chi=1 p_omega=0 K2=[{n},{n}] k=[0,0]\n"
            f"smooth: g=1 p_g=0 chi=1 K2=[{n},{n}]\n"
        )


class TestDot:
    def test_pinned_shape(self):
        g = DualGraph(
            3,
            ((0, 1), (1, 2), (0, 2)),
            two_cells=((0, 1, 2),),
        )
        out = to_dot(g)
        assert out.startswith("graph zappatic {")
        assert 'v0 -- v1 [label="C_{0,1}"];' in out
        assert "/* face: " in out

    def test_open_face_dashed(self):
        g = DualGraph(3, ((0, 1), (1, 2)), open_faces=((0, 1),))
        out = to_dot(g)
        assert "v0 -- v2 [style=dashed];" in out

    @pytest.mark.parametrize("n, text", [
        (3, """graph zappatic {
  v0;
  v1;
  v2;
  v0 -- v1 [label="C_{0,1}"];
  v0 -- v2 [label="C_{0,2}"];
  v1 -- v2 [label="C_{1,2}"];
  /* face: v0 v1 v2 */
}
"""),
        (4, """graph zappatic {
  v0;
  v1;
  v2;
  v3;
  v0 -- v1 [label="C_{0,1}"];
  v0 -- v3 [label="C_{0,3}"];
  v1 -- v2 [label="C_{1,2}"];
  v2 -- v3 [label="C_{2,3}"];
  /* face: v0 v1 v2 v3 */
}
"""),
        (5, """graph zappatic {
  v0;
  v1;
  v2;
  v3;
  v4;
  v0 -- v1 [label="C_{0,1}"];
  v0 -- v4 [label="C_{0,4}"];
  v1 -- v2 [label="C_{1,2}"];
  v2 -- v3 [label="C_{2,3}"];
  v3 -- v4 [label="C_{3,4}"];
  /* face: v0 v1 v2 v3 v4 */
}
"""),
        (6, """graph zappatic {
  v0;
  v1;
  v2;
  v3;
  v4;
  v5;
  v0 -- v1 [label="C_{0,1}"];
  v0 -- v5 [label="C_{0,5}"];
  v1 -- v2 [label="C_{1,2}"];
  v2 -- v3 [label="C_{2,3}"];
  v3 -- v4 [label="C_{3,4}"];
  v4 -- v5 [label="C_{4,5}"];
  /* face: v0 v1 v2 v3 v4 v5 */
}
"""),
    ])
    def test_pinned_cone_over_cycle(self, n, text):
        """The whole DOT text of the dual graph of cone_over_cycle(n), face
        line included; no CI build has an E point to pin one."""
        arr = cone_over_cycle(n)
        inc = compute_incidence(arr)
        assert to_dot(build_dual_graph(arr, inc, zappatic_report(arr, inc))) == text

    def test_deterministic(self):
        g = build_torus_complex(2, 3)
        assert to_dot(g) == to_dot(build_torus_complex(2, 3))
