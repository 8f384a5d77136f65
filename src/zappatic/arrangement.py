"""Plane arrangements in P^r and their singular-point classification.

A configuration of planes has two kinds of singular structure: double lines
(pairs meeting along a line) and finitely many singular points.  Each
singular point carries a local graph whose vertices are the planes through
the point and whose edges are the double lines through it; the shape of that
graph (chain / fork / cycle), together with the dimension of the span of the
incident planes, decides whether the point is a Zappatic singularity of type
R_n, S_n or E_n.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from zappatic import linalg
from zappatic.errors import RangeError
from zappatic.projective import ProjPoint, Subspace, meet


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int
    planes: tuple[Subspace, ...]

    def __init__(self, ambient_dim: int, planes):
        planes = tuple(planes)
        seen = set()
        for i, s in enumerate(planes):
            if s.ambient_dim != ambient_dim:
                raise RangeError("plane ambient dimension mismatch")
            if s.basis in seen:
                raise RangeError(f"duplicate plane at index {i}")
            seen.add(s.basis)
            if s.dim != 2:
                raise RangeError("a component plane must have dimension 2")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "planes", planes)

    def __len__(self):
        return len(self.planes)


@dataclass(frozen=True)
class SingularPoint:
    point: ProjPoint
    incident_planes: frozenset[int]
    local_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IncidenceData:
    double_lines: tuple[tuple[int, int, Subspace], ...]
    point_meets: tuple[tuple[int, int, ProjPoint], ...]
    singular_points: tuple[SingularPoint, ...]


def compute_incidence(arr: Arrangement, base: IncidenceData | None = None) -> IncidenceData:
    """Pairwise intersection structure plus the derived singular points.

    Everything follows from the pairwise plane meets by one lemma: two
    distinct planes through a point p meet in p alone or in a double line
    through p.  Hence two double lines crossing at p give a point meet at p
    or two double lines of one plane crossing at p, so the singular points
    are the point meets and those crossings.  Likewise a plane through p
    meets some plane producing p in p, or in a double line that crosses
    another one at p on a common plane, so the planes through p are the
    planes of the meets that produce p, and the local edges at p are the
    double lines whose two planes both pass through p.  Those are read off
    the table of each plane's double lines by neighbour, so a point costs
    the double lines of its own planes, not a scan of all of them.

    Only pairs of planes that share a coordinate are met.  Every vector of
    a subspace is zero off its support, so planes with disjoint supports
    meet in nothing and record nothing: no double line, no point meet.  The
    coordinate planes of a triangulation share a coordinate only when
    their triangles share a vertex, so their pairs are mostly skipped.

    The crossings are read off the pair table, with one exception.  Double
    lines (s, u) and (s, w) lie in the plane P_s and cross there.  If they
    coincide, that line lies on P_u and P_w, so (u, w) is a double line
    too.  Otherwise they cross in one point, which lies on P_u and P_w; so
    when (u, w) is not a double line it is a point meet at that point, and
    the crossing is that point.  So a point meet (u, w) gives its point the
    planes u, w and every common neighbour of u and w in the graph of
    double lines.  Only a triangle of that graph needs a meet of two of its
    lines: three planes on one line, or a point that all three planes pass
    through (all three crossings are that point, the one point common to
    the three planes).

    ``base`` is the incidence of the first k planes of ``arr``, where k is
    one more than the highest plane index in its meets; from scratch,
    k = 0.  A meet of two of those old planes, and a crossing of two of
    their double lines, depends on those planes alone, so ``base`` already
    holds it: its double lines and point meets are taken over, and each of
    its singular points lists exactly the planes that its meets and
    crossings contribute there, so adding an old plane to one changes
    nothing.  Only the pairs with a new plane are met, and only the
    triangles with a new plane cross lines.  An old plane past the highest
    index meets no old plane, so counting it as new only re-meets pairs
    that are empty.  No meet is a plane: ``Arrangement`` refuses a repeated
    basis, and bases are canonical.
    """
    old = IncidenceData((), (), ()) if base is None else base
    k = max((j + 1 for _, j, _ in old.double_lines + old.point_meets), default=0)
    v = len(arr)
    supports = [plane.support for plane in arr.planes]
    new_lines = []
    new_points = []
    for i in range(v):
        support = supports[i]
        for j in range(max(i + 1, k), v):
            if support.isdisjoint(supports[j]):
                continue
            inter = meet(arr.planes[i], arr.planes[j])
            if inter.dim == 1:
                new_lines.append((i, j, inter))
            elif inter.dim == 0:
                new_points.append((i, j, inter.point()))
    double_lines = sorted(old.double_lines + tuple(new_lines), key=itemgetter(0, 1))
    point_meets = sorted(old.point_meets + tuple(new_points), key=itemgetter(0, 1))

    through: dict[tuple[int, ...], tuple[ProjPoint, set[int]]] = {
        sp.point.coords: (sp.point, set(sp.incident_planes)) for sp in old.singular_points
    }
    # neighbour -> double line, per plane, in increasing order of neighbour:
    # double_lines is sorted, so plane i's lines (u, i), u < i, come before
    # its lines (i, w), each in increasing order
    lines_at = [{} for _ in range(v)]
    for i, j, line in double_lines:
        lines_at[i][j] = lines_at[j][i] = line
    for i, j, p in point_meets:
        planes = through.setdefault(p.coords, (p, set()))[1]
        planes.update((i, j), lines_at[i].keys() & lines_at[j].keys())
    for i, j, line in double_lines:
        for s in lines_at[i].keys() & lines_at[j].keys():
            # s is the triangle's last plane, and new if any of its planes is
            if s > j and s >= k:
                inter = meet(line, lines_at[i][s])
                if inter.dim == 0:
                    p = inter.point()
                    through.setdefault(p.coords, (p, set()))[1].update((i, j, s))

    points = []
    for key in sorted(through):
        p, planes = through[key]
        order = sorted(planes)
        # in the order of double_lines
        edges = tuple([(i, j) for i in order for j in lines_at[i] if j > i and j in planes])
        # sorted: the iteration order of a scan over the planes
        points.append(SingularPoint(p, frozenset(order), edges))
    return IncidenceData(tuple(double_lines), tuple(point_meets), tuple(points))


@dataclass(frozen=True)
class SingularityType:
    kind: str  # "R" | "S" | "E" | "NonZappatic"
    n: int = 0
    reason: str = ""
    vertex_order: tuple[int, ...] = ()

    @property
    def central(self) -> int | None:
        """The central plane: the centre of a fork (S), the middle plane of
        an R_3 chain, and None for any other type."""
        if self.kind == "S":
            return self.vertex_order[0]
        if self.kind == "R" and self.n == 3:
            return self.vertex_order[1]
        return None

    @property
    def tag(self) -> str:
        if self.kind == "NonZappatic":
            return f"NonZappatic({self.reason})"
        return f"{self.kind}{self.n}"


def _graph_shape(vertices, edges):
    """Classify the local graph: ('chain'|'cycle'|'fork', order) or None.

    order: for a chain the path from one end, for a cycle a closed walk,
    for a fork the center followed by the sorted leaves.

    The edges join distinct vertices.  One pass over the degrees names the
    only shape the graph can take, and one walk, which never steps back to
    the vertex it came from, confirms a chain or a cycle:
      * n - 1 edges and two leaves: a chain exactly when the walk from the
        smaller leaf meets n distinct vertices, since its n - 1 steps are
        then all the edges;
      * n >= 3 edges and no leaf: a cycle exactly when the walk from the
        smallest vertex meets n distinct vertices, since the one edge off
        that path must then join its two ends, each of which needs a
        second edge;
      * n - 1 >= 3 edges and n - 1 leaves: a fork, with no walk, since the
        leaves hold n - 1 of the 2(n - 1) edge ends and the other vertex
        the other n - 1, so every edge joins a leaf to that vertex.
    """
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    n = len(vertices)
    ne = len(edges)
    leaves = [v for v in vertices if len(adj[v]) == 1]
    if ne == n - 1 and len(leaves) == 2:
        shape, first = "chain", min(leaves)
    elif ne == n >= 3 and not leaves:
        shape, first = "cycle", min(vertices)
    elif ne == n - 1 >= 3 and len(leaves) == n - 1:
        center = next(v for v in vertices if len(adj[v]) != 1)
        return "fork", (center, *sorted(leaves))
    else:
        return None
    order = [first]
    prev = None
    for _ in range(n - 1):
        nxt = next((y for y in adj[order[-1]] if y != prev), None)
        if nxt is None:
            return None
        prev = order[-1]
        order.append(nxt)
    return (shape, tuple(order)) if len(set(order)) == n else None


# local graph shape -> (type, required span dimension minus n)
_SHAPE_TYPES = {"chain": ("R", 1), "fork": ("S", 1), "cycle": ("E", 0)}


def classify_point(
    arr: Arrangement, inc: IncidenceData, point_index: int
) -> SingularityType:
    """Type of one singular point.

    Chain with maximal span (n+1) gives R_n, fork with span n+1 gives S_n,
    cycle with span n gives E_n.  A point where only two planes touch, or
    whose local graph or span fails the test, is not Zappatic.

    A chain P1 - P2 - P3 of three planes through p always spans a P^4, so
    it is R_3 with no rank:
      * P1 and P3 both contain p, and their meet is not a local edge, so it
        is not a line: P1 and P3 meet in p alone;
      * P1 and P2 share a line, so they span a P^3;
      * if P3 lay in that P^3, P1 and P3 would meet in a line; so P3, which
        shares a line with P2, adds exactly one dimension.
    For forks, 3-cycles and longer chains the pairwise meets do not decide
    the span, and it is ranked on the union of the planes' supports: every
    other column of the stacked bases is zero and adds nothing to the rank.
    """
    sp = inc.singular_points[point_index]
    planes = sorted(sp.incident_planes)
    n = len(planes)
    if n < 3:
        if not sp.local_edges:
            return SingularityType("NonZappatic", n, "isolated plane-pair contact")
        return SingularityType("NonZappatic", n, "local graph not chain/fork/cycle")
    shape = _graph_shape(planes, sp.local_edges)
    if shape is None:
        return SingularityType("NonZappatic", n, "local graph not chain/fork/cycle")
    shape_name, order = shape
    kind, excess = _SHAPE_TYPES[shape_name]
    if shape_name == "chain" and n == 3:
        span_dim = 4
    else:
        get = itemgetter(*sorted(frozenset().union(*(arr.planes[i].support for i in planes))))
        span_dim = linalg.rank([get(row) for i in planes for row in arr.planes[i].basis]) - 1
    if span_dim != n + excess:
        return SingularityType("NonZappatic", n, "span too small")
    return SingularityType(kind, n, vertex_order=order)


@dataclass(frozen=True)
class ZappaticReport:
    """The violations and the type of each singular point, in incidence
    order.  The arrangement is Zappatic iff there is no violation, and the
    R_n, S_n and E_n counts (n -> count) tally the types in order."""

    violations: tuple[str, ...]
    types: tuple[SingularityType, ...]

    @property
    def is_zappatic(self) -> bool:
        return not self.violations

    def _tally(self, kind: str) -> dict[int, int]:
        return dict(Counter(t.n for t in self.types if t.kind == kind))

    @cached_property
    def r_counts(self) -> dict[int, int]:
        return self._tally("R")

    @cached_property
    def s_counts(self) -> dict[int, int]:
        return self._tally("S")

    @cached_property
    def f_counts(self) -> dict[int, int]:
        return self._tally("E")


def zappatic_report(
    arr: Arrangement,
    inc: IncidenceData | None = None,
    base: tuple[IncidenceData, ZappaticReport] | None = None,
) -> ZappaticReport:
    """Aggregate classification of every singular point.

    The arrangement is Zappatic iff every singular point classifies as
    R_n/S_n/E_n and every double line lies on exactly two planes.  A point
    meet needs no check of its own: its point is a singular point, both its
    planes are among that point's planes, and a Zappatic type orders all of
    them.  A third plane through a double line meets both of its planes in
    that line, so the planes on a line are the planes of the double lines
    with its basis.

    ``base`` is the ``(incidence, report)`` of the first k planes of
    ``arr``, as for ``compute_incidence``.  A point's type is a function of
    its incident planes, its local edges and the bases of those planes
    alone, and the first k planes of ``arr`` are the base's planes, so a
    singular point whose coordinates, incident planes and local edges all
    equal those of a base point has that point's type exactly.  Only the
    other points, those a new plane passes through, are classified.
    """
    if inc is None:
        inc = compute_incidence(arr)
    known = {}
    if base is not None:
        for sp, t in zip(base[0].singular_points, base[1].types):
            known[sp.point.coords, sp.incident_planes, sp.local_edges] = t
    violations = []
    types = []

    planes_on = defaultdict(set)
    for i, j, line in inc.double_lines:
        planes_on[line.basis].update((i, j))
    for i, j, line in inc.double_lines:
        on = len(planes_on[line.basis])
        if on > 2:
            violations.append(f"double line of planes ({i},{j}) lies on {on} planes")

    for k, sp in enumerate(inc.singular_points):
        t = known.get((sp.point.coords, sp.incident_planes, sp.local_edges))
        if t is None:
            t = classify_point(arr, inc, k)
        types.append(t)
        if t.kind == "NonZappatic":
            violations.append(f"point {list(sp.point.coords)}: {t.reason}")
    return ZappaticReport(tuple(violations), tuple(types))
