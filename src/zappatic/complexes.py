"""Dual graphs / CW-complexes of plane configurations and their homology.

The dual complex has one vertex per plane and one edge per double line.
Cycle points (E_n) attach honest 2-cells; chain points (R_n) only contribute
an open face (recorded, drawn dashed, but never part of the boundary map);
fork points (S_n) contribute an angle.  A 2-cell is any closed walk on its
edges in order, oriented once, for d_2 and for DOT; an open one is refused.
Homology is computed over Q: h_0 is the number of connected components of
the graph, found by union-find, and h_1, h_2 follow from it and the rank of
the integer boundary matrix d_2, one sparse column per 2-cell, taken by
linalg.sparse_rank.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from zappatic import linalg
from zappatic.errors import InternalCheckError, RangeError
from zappatic.arrangement import Arrangement, IncidenceData, ZappaticReport


@dataclass(frozen=True)
class DualGraph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]  # unordered pairs; index = edge id
    two_cells: tuple[tuple[int, ...], ...] = ()  # edge ids along each cycle
    open_faces: tuple[tuple[int, ...], ...] = ()  # edge ids along each chain
    angles: tuple[tuple[int, ...], ...] = ()  # edge ids of each star

    def __post_init__(self):
        e = len(self.edges)
        for a, b in self.edges:
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise RangeError("edge endpoint out of range")
        for cell in self.two_cells + self.open_faces + self.angles:
            for k in cell:
                if not (0 <= k < e):
                    raise RangeError("face references a missing edge")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.two_cells)

    def face_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) for c in self.two_cells))

    def open_face_counts(self) -> dict[int, int]:
        # an R_n point has n-1 real edges
        return dict(Counter(len(c) + 1 for c in self.open_faces))

    def angle_counts(self) -> dict[int, int]:
        return dict(Counter(len(c) + 1 for c in self.angles))


@dataclass(frozen=True)
class HomologyReport:
    h0: int
    h1: int
    h2: int
    euler: int

    def __post_init__(self):
        if self.euler != self.h0 - self.h1 + self.h2:
            raise InternalCheckError("Euler characteristic mismatch")


def _closed_walk(graph: DualGraph, cell):
    """The vertices of a 2-cell's closed walk, its start repeated at the end.
    The start is an end of the first edge, the smaller first, from which the
    edges chain back to it; a cell with no such end is refused."""
    edges = graph.edges
    if len(cell) < 2:
        raise RangeError("a 2-cell needs at least two edges")
    for start in sorted(set(edges[cell[0]])):
        walk = [start]
        for k in cell:
            a, b = edges[k]
            if walk[-1] not in (a, b):
                break
            walk.append(b if walk[-1] == a else a)
        else:
            if walk[-1] == start:
                return walk
    raise RangeError("2-cell boundary is not a closed walk")


def count_components(vertices, edges) -> int:
    """Number of connected components of a graph, by union-find."""
    parent = {v: v for v in vertices}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def homology(graph: DualGraph) -> HomologyReport:
    """Ranks of H_0, H_1, H_2 over the rationals.

    h0 is the number of connected components, so rank d1 = v - h0 with no
    matrix built; h1 and h2 follow from the rank of the integer d2, one
    sparse column per 2-cell, signed along its closed walk.  A cell that
    runs along an edge twice has +-2 or 0 there; sparse_rank skips zeros.
    """
    v, e, f = graph.num_vertices, graph.num_edges, graph.num_faces
    h0 = count_components(range(v), graph.edges)
    d2 = []
    for cell in graph.two_cells:
        col = Counter()
        for k, at in zip(cell, _closed_walk(graph, cell)):
            col[k] += 1 if graph.edges[k][0] == at else -1
        d2.append(col)
    r2 = linalg.sparse_rank(d2)
    return HomologyReport(h0, e - (v - h0) - r2, f - r2, v - e + f)


def build_dual_graph(
    arr: Arrangement, inc: IncidenceData, report: ZappaticReport
) -> DualGraph:
    """Dual complex of a Zappatic arrangement."""
    if not report.is_zappatic:
        raise RangeError("arrangement is not Zappatic")
    edge_ids = {}
    edges = []
    for i, j, _line in inc.double_lines:
        edge_ids[(i, j)] = len(edges)
        edges.append((i, j))

    def eid(a, b):
        return edge_ids[(min(a, b), max(a, b))]

    two_cells = []
    open_faces = []
    angles = []
    for t in report.types:
        order = t.vertex_order
        if t.kind == "E":
            cyc = [eid(order[k], order[(k + 1) % t.n]) for k in range(t.n)]
            two_cells.append(tuple(cyc))
        elif t.kind == "R":
            open_faces.append(
                tuple(eid(order[k], order[k + 1]) for k in range(t.n - 1))
            )
        elif t.kind == "S":
            center = order[0]
            angles.append(tuple(eid(center, leaf) for leaf in order[1:]))
    return DualGraph(
        num_vertices=len(arr),
        edges=tuple(edges),
        two_cells=tuple(two_cells),
        open_faces=tuple(open_faces),
        angles=tuple(angles),
    )


def build_torus_complex(n: int, m: int) -> DualGraph:
    """Dual complex of the degree-2nm planar degeneration of an abelian surface.

    Each cell of an n-by-m torus grid of quadrics splits into two triangles
    (vertices A and B); the complex has 2nm vertices, 3nm edges and nm
    hexagonal 2-cells, one per E_6 point, tiling a torus.
    """
    if n < 2 or m < 2:
        raise RangeError("torus complex requires n >= 2 and m >= 2")

    def A(i, j):
        return 2 * ((i % n) * m + (j % m))

    def B(i, j):
        return A(i, j) + 1

    def eid(i, j, k):
        # edge k of cell (i, j): 0 its diagonal, 1 its bottom, 2 its left edge
        return 3 * ((i % n) * m + j % m) + k

    edges = []
    for i in range(n):
        for j in range(m):
            # the diagonal, bottom and left edge of cell (i, j), at eid(i, j, 0..2)
            for u, v in ((A(i, j), B(i, j)), (A(i, j), B(i, j - 1)), (B(i, j), A(i - 1, j))):
                edges.append((min(u, v), max(u, v)))

    # one hexagon around each grid vertex (i, j)
    two_cells = [
        (
            eid(i, j, 0), eid(i, j, 2), eid(i - 1, j, 1),
            eid(i - 1, j - 1, 0), eid(i, j - 1, 2), eid(i, j, 1),
        )
        for i in range(n)
        for j in range(m)
    ]

    g = DualGraph(
        num_vertices=2 * n * m, edges=tuple(edges), two_cells=tuple(two_cells)
    )
    if g.num_vertices - g.num_edges + g.num_faces != 0:
        raise InternalCheckError("torus complex Euler characteristic is not 0")
    return g


def to_dot(graph: DualGraph) -> str:
    """DOT rendering: labeled edges, dashed open-face closures, face comments."""
    lines = ["graph zappatic {"]
    for v in range(graph.num_vertices):
        lines.append(f"  v{v};")
    for a, b in graph.edges:
        lines.append(f'  v{a} -- v{b} [label="C_{{{a},{b}}}"];')
    for face in graph.open_faces:
        ends = _open_face_ends(graph, face)
        if ends is not None:
            lines.append(f"  v{ends[0]} -- v{ends[1]} [style=dashed];")
    for cell in graph.two_cells:
        walk = _closed_walk(graph, cell)[:-1]
        lines.append("  /* face: " + " ".join(f"v{x}" for x in walk) + " */")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _open_face_ends(graph: DualGraph, face):
    """Extremal vertices of an open face's edge path."""
    cnt = Counter()
    for k in face:
        a, b = graph.edges[k]
        cnt[a] += 1
        cnt[b] += 1
    ends = sorted(v for v, c in cnt.items() if c == 1)
    return (ends[0], ends[1]) if len(ends) == 2 else None

