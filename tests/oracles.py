"""Independent reference implementations used only by the test suite.

The linear algebra is deliberately written over Fractions with textbook
Gaussian elimination so it shares no code path with zappatic.linalg's
integer kernel.  The fraction-free Bareiss elimination with integer
back-substitution is kept as a second reference: it divides exactly by the
previous pivot where the kernel divides each row by its content, and the
kernel's content-reducing elimination must agree with it.  The incidence
reference is the direct route that
the arrangement module avoids: it meets every pair of double lines and
finds the planes and double lines through each point, and the planes on
each double line, by containment tests that rank the stacked rows with
the fraction-free Bareiss elimination rather than reduce against
Subspace's equations; the report reference ranks the span of every point's
planes the same way, which classify_point reads off the local graph for a
chain of three.  The report-against-complex check compares a report's
point counts with the cells that complexes.build_dual_graph made from its
types, and reads each central plane off the local edges rather than the
vertex order.  The local-graph reference classifies by
union-find and a sorted degree list, where arrangement._graph_shape
makes one degree pass and one walk.  The chain feasibility reference is
the depth-first search over all placements that scrolls.chain_feasible
replaced with a direct witness; it costs 2^a.  The strip walk counts the
triangles at every vertex of both directrices of a placement's triangulated
strip, a count that chain_feasible bounds on the degree-a side only.  The
homology reference ranks both dense boundary matrices and orients each
cell by trying every direction of its edges, where complexes.homology
walks each cell from an end of its first edge, reads h_0 off the
connected components and ranks d_2 from sparse columns; the
disjoint-pair reference meets every pair of central planes, where the
constructions read contacts off the incidence.
The reference writer builds the file's object for json.dumps, which
serialize.dumps replaces with its own string joins.
The coordinate changes, invertible by frac_rank, and the moved copy of an
arrangement put it in a random integer frame with its planes in any order,
where every support is full and every sparse shortcut gives way to the
dense route.
The Euler-characteristic formula and the parameter count are the second and
third routes to invariants.hilbert_dim.  The Klein form is the quadric that
projective.klein_value evaluates, as a matrix.  The transversality check
meets a recorded attachment 3-space with every plane, the check that
constructions._attach_pair runs while it samples, redone from the record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def frac_rref(rows):
    """Reduced row echelon form over Q, pivots normalized to 1."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return []
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                q = m[i][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return [row for row in m if any(row)]


def frac_rank(rows) -> int:
    return len(frac_rref(rows))


def frac_nullspace(rows, ncols=None):
    """Basis of the right kernel over Q (free variable = 1 pattern)."""
    rows = list(rows)
    if not rows:
        return [
            [Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)
        ]
    nc = len(rows[0])
    red = frac_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, c in zip(red, pivots):
            v[c] = -r[f]
        basis.append(v)
    return basis


def _bareiss_echelon(rows):
    """Bareiss forward elimination: (matrix, pivot_cols); every division is exact."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            q = m[i][c]
            for j in range(c + 1, ncols):
                m[i][j] = (p * m[i][j] - q * m[r][j]) // prev
            m[i][c] = 0
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return m, pivots


def bareiss_rank(rows) -> int:
    return len(_bareiss_echelon(rows)[1])


def bareiss_rref(rows):
    """Canonical integer rref: Bareiss, then back-substitution in which each
    upper row is multiplied by the pivot below it and made primitive again."""
    m, pivots = _bareiss_echelon(rows)
    k = len(pivots)
    for i in range(k - 1, -1, -1):
        c = pivots[i]
        m[i] = list(frac_primitive(m[i]))
        p = m[i][c]
        for a in range(i):
            q = m[a][c]
            if q:
                m[a] = [p * x - q * y for x, y in zip(m[a], m[i])]
    return tuple(frac_primitive(m[i]) for i in range(k))


def coordinate_changes(n, seed, bound, count=10):
    """count random invertible (n+1) x (n+1) integer matrices, entries
    in [-bound, bound]."""
    rng = random.Random(seed)
    while count:
        m = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(n + 1)]
        if frac_rank(m) == n + 1:
            count -= 1
            yield m


def moved_subspace(sub, m):
    """sub with every basis row x replaced by m x."""
    from zappatic.projective import Subspace

    return Subspace(sub.ambient_dim, [
        [sum(a * x for a, x in zip(mrow, row)) for mrow in m] for row in sub.basis])


def moved(arr, m, order=None):
    """arr with every plane moved by m (moved_subspace), and with its planes
    listed in order, a permutation of their indices (default: as they
    are)."""
    from zappatic.arrangement import Arrangement

    planes = arr.planes if order is None else [arr.planes[i] for i in order]
    return Arrangement(arr.ambient_dim, [moved_subspace(p, m) for p in planes])


def frac_primitive(vec):
    """Integer multiple of a rational vector with content 1, leading entry > 0."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def basis_pivots(basis) -> tuple[int, ...]:
    """Column of the first nonzero entry of each row, in row order."""
    return tuple(next(c for c, x in enumerate(row) if x) for row in basis)


def frac_meet(a_rows, b_rows, ncols):
    """Basis of the intersection of two row spans, through the left kernel.

    x.A + y.B = 0 puts x.A in both spans, and every common vector arises so:
    take frac_nullspace of the stacked rows' transpose, then frac_rref of
    the images x.A.  No annihilator of either span is formed.
    """
    if not a_rows or not b_rows:
        return []
    stacked = list(a_rows) + list(b_rows)
    kernel = frac_nullspace([list(col) for col in zip(*stacked)], len(stacked))
    images = [
        [sum(x * row[c] for x, row in zip(v, a_rows)) for c in range(ncols)]
        for v in kernel
    ]
    return frac_rref(images)


def bareiss_contains(basis, rows) -> bool:
    """Whether the row span of basis holds every one of rows, by bareiss_rank
    of the stacked rows."""
    return bareiss_rank(list(basis) + list(rows)) == len(basis)


def containment_incidence(arr):
    """IncidenceData from all plane and line meets plus containment tests,
    each decided by bareiss_contains."""
    from zappatic.arrangement import IncidenceData, SingularPoint
    from zappatic.projective import meet

    v = len(arr)
    double_lines = []
    point_meets = []
    for i in range(v):
        for j in range(i + 1, v):
            inter = meet(arr.planes[i], arr.planes[j])
            if inter.dim == 1:
                double_lines.append((i, j, inter))
            elif inter.dim == 0:
                point_meets.append((i, j, inter.point()))
    candidates = {p.coords: p for _, _, p in point_meets}
    for a in range(len(double_lines)):
        for b in range(a + 1, len(double_lines)):
            inter = meet(double_lines[a][2], double_lines[b][2])
            if inter.dim == 0:
                candidates[inter.point().coords] = inter.point()
    points = []
    for key in sorted(candidates):
        p = candidates[key]
        incident = frozenset(i for i in range(v) if bareiss_contains(arr.planes[i].basis, [p.coords]))
        edges = tuple((i, j) for i, j, line in double_lines
                      if bareiss_contains(line.basis, [p.coords]))
        points.append(SingularPoint(p, incident, edges))
    return IncidenceData(tuple(double_lines), tuple(point_meets), tuple(points))


def containment_report(arr, inc):
    """ZappaticReport with the plane count of each double line by
    bareiss_contains, the span of each point's planes by bareiss_rank, and an
    explicit check that each point meet is absorbed into a Zappatic point
    whose vertex order holds both planes.

    classify_point gives each point's local-graph shape; its span is not
    trusted.  A chain or fork of n planes must span a P^(n+1) and a cycle a
    P^n, that is P^(2n - e) for e local edges.  An R/S/E point whose planes
    span less becomes "span too small", and a "span too small" point whose
    planes span that much is a violation."""
    from zappatic.arrangement import SingularityType, ZappaticReport, classify_point

    violations = []
    for i, j, line in inc.double_lines:
        on = sum(1 for k in range(len(arr)) if bareiss_contains(arr.planes[k].basis, line.basis))
        if on > 2:
            violations.append(f"double line of planes ({i},{j}) lies on {on} planes")
    types = []
    for k, sp in enumerate(inc.singular_points):
        t = classify_point(arr, inc, k)
        if t.kind in ("R", "S", "E") or t.reason == "span too small":
            rows = [row for i in sp.incident_planes for row in arr.planes[i].basis]
            full = bareiss_rank(rows) - 1 == 2 * t.n - len(sp.local_edges)
            if not full:
                t = SingularityType("NonZappatic", t.n, "span too small")
            elif t.kind == "NonZappatic":
                violations.append(f"point {list(sp.point.coords)}: span is full")
        types.append(t)
    for sp, t in zip(inc.singular_points, types):
        if t.kind == "NonZappatic":
            violations.append(f"point {list(sp.point.coords)}: {t.reason}")
    index = {sp.point.coords: k for k, sp in enumerate(inc.singular_points)}
    for i, j, p in inc.point_meets:
        k = index.get(p.coords)
        if k is None:
            violations.append(f"planes ({i},{j}) meet at an unclassified point")
        elif types[k].kind in ("R", "S", "E") and not {i, j} <= set(types[k].vertex_order):
            violations.append(f"planes ({i},{j}) touch a singular point they are not part of")
    return ZappaticReport(tuple(violations), tuple(types))


def report_disagreements(inc, report, graph):
    """How a report and the dual complex built from it disagree.

    The R_n, S_n and E_n counts must equal those of the open faces, angles
    and 2-cells.  The central plane of a fork (S_n) or of a three-plane
    chain (R_3) lies on every local edge at its point, and no other type
    has one."""
    out = []
    for kind, counts, cells in (
        ("R", report.r_counts, graph.open_face_counts()),
        ("S", report.s_counts, graph.angle_counts()),
        ("E", report.f_counts, graph.face_counts()),
    ):
        if counts != cells:
            out.append(f"{kind} counts {counts} but the complex has {cells}")
    for sp, t in zip(inc.singular_points, report.types):
        on_every_edge = None
        if t.kind == "S" or t.tag == "R3":
            (on_every_edge,) = set(sp.incident_planes).intersection(*sp.local_edges)
        if t.central != on_every_edge:
            out.append(f"{t.tag} at {list(sp.point.coords)}: central {t.central},"
                       f" on every local edge {on_every_edge}")
    return out


def dfs_chain_feasible(a, b):
    """chain_feasible by depth-first search: the first placement j_1 < ... < j_a
    found with j_1 tried as 3, 2, 1 and each step as 1 before 2."""
    limit = a + b

    def extend(prefix):
        if len(prefix) == a:
            return tuple(prefix) if prefix[-1] >= a + b - 2 else None
        for step in (1, 2):
            nxt = prefix[-1] + step
            if nxt <= limit:
                got = extend(prefix + [nxt])
                if got:
                    return got
        return None

    for j1 in (3, 2, 1):
        if j1 <= limit:
            witness = extend([j1])
            if witness:
                return {"feasible": True, "witness": witness}
    return {"feasible": False, "obstruction": "j_a range empty (a+b-2 > 2a+1)"}


def strip_vertex_counts(a, b, j):
    """Triangles at each vertex of the strip that placement j triangulates.

    The strip of S(a, b) has a + 1 vertices on the degree-a directrix and
    b + 1 on the degree-b one.  Its a + b triangles are walked in order:
    the one at position p has its base on the degree-a directrix when p is
    in j, and on the degree-b directrix otherwise.  Returns the counts on
    the two directrices, in vertex order.
    """
    low, high = [0] * (a + 1), [0] * (b + 1)
    x = y = 0
    for p in range(1, a + b + 1):
        # each triangle has the current vertex of either side, and the next
        # vertex of its base's side
        low[x] += 1
        high[y] += 1
        if p in j:
            x += 1
            low[x] += 1
        else:
            y += 1
            high[y] += 1
    return low, high


def dfs_components(num_vertices, edges):
    """Number of connected components of a graph on 0..num_vertices-1."""
    adj = [[] for _ in range(num_vertices)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    count = 0
    for start in range(num_vertices):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def graph_shape(vertices, edges):
    """The local-graph classifier that arrangement._graph_shape replaced:
    ('chain'|'cycle'|'fork', order) or None, deciding connectivity by
    union-find and the shape by the sorted degree list.

    order: for a chain the path from one end, for a cycle a closed walk,
    for a fork the center followed by the sorted leaves.
    """
    from zappatic.complexes import count_components

    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    n = len(vertices)
    ne = len(edges)
    if len(set(edges)) != ne or count_components(vertices, edges) != 1:
        return None

    def walk(first):
        order = [first]
        prev = None
        while len(order) < n:
            nxt = next(y for y in adj[order[-1]] if y != prev)
            prev = order[-1]
            order.append(nxt)
        return tuple(order)

    deg = {v: len(adj[v]) for v in vertices}
    degs = sorted(deg.values())
    if ne == n - 1 and degs == [1, 1] + [2] * (n - 2):
        return "chain", walk(min(v for v in vertices if deg[v] == 1))
    if ne == n and degs == [2] * n:
        return "cycle", walk(min(vertices))
    if ne == n - 1 and n >= 4 and degs == [1] * (n - 1) + [n - 1]:
        center = next(v for v in vertices if deg[v] == n - 1)
        leaves = sorted(v for v in vertices if v != center)
        return "fork", tuple([center] + leaves)
    return None


def walk_signs(edges, cell):
    """Signs of a 2-cell's edges along a closed walk, found by trying every
    direction of every edge: +1 runs an edge from its first end to its
    second, -1 back, and a loop counts +1.  The first choice whose steps
    chain, each ending where the next begins and the last where the first
    begins, gives the signs.  Raises RangeError when no choice closes, or
    when the cell has fewer than two edges."""
    from itertools import product

    from zappatic.errors import RangeError

    if len(cell) >= 2:
        for signs in product((1, -1), repeat=len(cell)):
            steps = [edges[k][::s] for k, s in zip(cell, signs)]
            if all(steps[i - 1][1] == steps[i][0] for i in range(len(steps))):
                return [1 if a == b else s for (a, b), s in zip(steps, signs)]
    raise RangeError("2-cell boundary is not a closed walk")


def dense_homology(graph):
    """(h0, h1, h2) from the ranks of the dense boundary matrices d1 and d2,
    each cell oriented by walk_signs."""
    v, e, f = graph.num_vertices, graph.num_edges, graph.num_faces
    d1 = [[0] * e for _ in range(v)]
    for k, (a, b) in enumerate(graph.edges):
        if a != b:
            d1[a][k] -= 1
            d1[b][k] += 1
    d2 = [[0] * f for _ in range(e)]
    for c, cell in enumerate(graph.two_cells):
        for k, s in zip(cell, walk_signs(graph.edges, cell)):
            d2[k][c] += s
    r1, r2 = frac_rank(d1), frac_rank(d2)
    return (v - r1, e - r1 - r2, f - r2)


def meet_first_disjoint_central_pair(result):
    """First pair (in index order) of R_3 central planes whose meet is empty,
    with the centrals read off the report's types."""
    from zappatic.projective import meet

    centrals = sorted({t.central for t in result.report.types if (t.kind, t.n) == ("R", 3)})
    for a in range(len(centrals)):
        for b in range(a + 1, len(centrals)):
            i, j = centrals[a], centrals[b]
            if meet(result.arrangement.planes[i], result.arrangement.planes[j]).dim == -1:
                return (i, j)
    return None


def arrangement_to_dict(arr, metadata=None):
    """The object that serialize.dumps writes, for json.dumps to encode.

    Each entry becomes [x, 1], with x written as a decimal string when it
    does not fit in a signed 64-bit word; "metadata" is present only when
    nonempty.
    """
    def encode(x):
        return x if -(2**63) <= x < 2**63 else str(x)

    planes = [[[[encode(x), 1] for x in row] for row in p.basis] for p in arr.planes]
    out = {"ambient_dim": arr.ambient_dim, "planes": planes}
    if metadata:
        out["metadata"] = metadata
    return out


def chi_normal(d, g):
    """Euler characteristic route to hilbert_dim: d^2-4dg+4d+4g^2-g-3."""
    return d * d - 4 * d * g + 4 * d + 4 * g * g - g - 3


def param_breakdown(d, g):
    """Parameter count for the scroll component, summand by summand.

    Returns ([(label, signed count), ...], total); the total is the third
    route to hilbert_dim(d, g).
    """
    r = d - 2 * g + 1
    items = [
        ("curve moduli", 3 * g - 3),
        ("points on the product surface", 2 * d),
        ("projective transformations", (r + 1) ** 2 - 1),
        ("codimension-two subspace", -(2 * d - 4 * g)),
        ("pencil isomorphisms", -3),
    ]
    return items, sum(c for _, c in items)


def klein_form():
    """The Klein quadric x0 x5 - x1 x4 + x2 x3 of P^5 as a QuadricForm."""
    from zappatic.projective import QuadricForm

    m = [[0] * 6 for _ in range(6)]
    m[0][5] = m[5][0] = 1
    m[1][4] = m[4][1] = -1
    m[2][3] = m[3][2] = 1
    return QuadricForm(m)


@dataclass(frozen=True)
class TransversalityReport:
    passed: bool
    positive_dims: tuple[tuple[int, int], ...]  # (plane index, intersection dim)
    offending: tuple[int, ...]


def verify_transversality(arr, pi, expected):
    """Check that a 3-space meets the arrangement only along expected lines:
    the attachment check of constructions._attach_pair, from its record."""
    from zappatic.errors import RangeError
    from zappatic.projective import meet

    if pi.dim != 3:
        raise RangeError("transversality check requires a 3-dimensional subspace")
    expected = list(expected)
    positive = []
    offending = []
    for k in range(len(arr)):
        inter = meet(pi, arr.planes[k])
        if inter.dim >= 1:
            positive.append((k, inter.dim))
            if inter not in expected:
                offending.append(k)
    return TransversalityReport(not offending, tuple(positive), tuple(offending))
