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
from itertools import repeat

from zappatic import linalg
from zappatic.errors import RangeError
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


def _assemble(v: int, pairs, points) -> DualGraph:
    """The complex on v vertices whose edge k is pairs[k], an (i, j) with
    i < j, and whose cells come from points, each a (kind, vertex_order)
    pair: an E point's cycle closes into a 2-cell, an R point's chain is an
    open face, and an S point's edges from its centre order[0] to each leaf
    are an angle.  Each cell's edge ids join consecutive vertices."""
    edge_ids = {}
    for k, (a, b) in enumerate(pairs):
        edge_ids[a, b] = edge_ids[b, a] = k
    cells = {"E": [], "R": [], "S": []}
    for kind, order in points:
        # each vertex to the next, round the cycle for E, from the centre for S
        starts = repeat(order[0]) if kind == "S" else order
        ends = order[1:] + order[:1] if kind == "E" else order[1:]
        cells[kind].append(tuple(map(edge_ids.__getitem__, zip(starts, ends))))
    return DualGraph(v, tuple(pairs), tuple(cells["E"]), tuple(cells["R"]), tuple(cells["S"]))


def build_dual_graph(
    arr: Arrangement, inc: IncidenceData, report: ZappaticReport
) -> DualGraph:
    """Dual complex of a Zappatic arrangement: vertex k is plane k, edge k
    the plane pair (i < j) of the k-th double line, and each E_n, R_n or
    S_n point's 2-cell, open face or angle follows its vertex order."""
    if not report.is_zappatic:
        raise RangeError("arrangement is not Zappatic")
    return _assemble(
        len(arr),
        [(i, j) for i, j, _line in inc.double_lines],
        [(t.kind, t.vertex_order) for t in report.types],
    )


def build_torus_complex(n: int, m: int) -> DualGraph:
    """Dual complex of the degree-2nm planar degeneration of an abelian surface.

    Each square (i, j) of an n-by-m torus grid of quadrics, indices mod n
    and m, splits into triangles A(i, j) = 2(im + j) and B(i, j) = A + 1,
    numbered as the grid torus's coordinate planes are.  Square (i, j)
    adds three edges: its diagonal A(i, j)B(i, j), its bottom
    A(i, j)B(i, j-1) and its left edge B(i, j)A(i-1, j), so each A(i, j)
    is adjacent to B(i, j), B(i, j-1) and B(i+1, j).  Each grid vertex
    (i, j) is an E_6 point, with the hexagon A(i, j), B(i, j), A(i-1, j),
    B(i-1, j-1), A(i-1, j-1), B(i, j-1): 2nm vertices, 3nm edges and nm
    2-cells, Euler number 0, tiling a torus.
    """
    if n < 2 or m < 2:
        raise RangeError("torus complex requires n >= 2 and m >= 2")

    # A[i][j] and B[i][j]; an index of -1 wraps round to n - 1 or m - 1
    A = [[2 * (i * m + j) for j in range(m)] for i in range(n)]
    B = [[a + 1 for a in row] for row in A]
    squares = [(i, j) for i in range(n) for j in range(m)]
    pairs = [
        (min(u, w), max(u, w))
        for i, j in squares
        for u, w in ((A[i][j], B[i][j]), (A[i][j], B[i][j - 1]), (B[i][j], A[i - 1][j]))
    ]
    hexagons = [
        ("E", (A[i][j], B[i][j], A[i - 1][j], B[i - 1][j - 1], A[i - 1][j - 1], B[i][j - 1]))
        for i, j in squares
    ]
    return _assemble(2 * n * m, pairs, hexagons)


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

