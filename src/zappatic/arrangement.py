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

from collections import Counter
from dataclasses import dataclass, field

from zappatic.errors import RangeError
from zappatic.projective import ProjPoint, Subspace, meet, span_subspaces


@dataclass(frozen=True)
class Plane:
    subspace: Subspace
    label: int

    def __post_init__(self):
        if self.subspace.dim != 2:
            raise RangeError("a component plane must have dimension 2")


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int
    planes: tuple[Plane, ...]

    def __init__(self, ambient_dim: int, subspaces):
        planes = []
        seen = set()
        for i, s in enumerate(subspaces):
            if s.ambient_dim != ambient_dim:
                raise RangeError("plane ambient dimension mismatch")
            if s.basis in seen:
                raise RangeError(f"duplicate plane at index {i}")
            seen.add(s.basis)
            planes.append(Plane(s, i))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "planes", tuple(planes))

    def __len__(self):
        return len(self.planes)

    def subspace(self, i: int) -> Subspace:
        return self.planes[i].subspace


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


def compute_incidence(arr: Arrangement) -> IncidenceData:
    """Pairwise intersection structure plus the derived singular points.

    Singular points are the pairwise intersection points of double lines
    together with all point-meet points; for each we record every incident
    plane and every double line through it.
    """
    v = len(arr)
    double_lines = []
    point_meets = []
    for i in range(v):
        for j in range(i + 1, v):
            inter = meet(arr.subspace(i), arr.subspace(j))
            if inter.dim == 2:
                raise RangeError(f"planes {i} and {j} coincide")
            if inter.dim == 1:
                double_lines.append((i, j, inter))
            elif inter.dim == 0:
                point_meets.append((i, j, inter.point()))

    candidates: dict[tuple[int, ...], ProjPoint] = {}
    for a in range(len(double_lines)):
        for b in range(a + 1, len(double_lines)):
            inter = meet(double_lines[a][2], double_lines[b][2])
            if inter.dim == 0:
                p = inter.point()
                candidates[p.coords] = p
    for _, _, p in point_meets:
        candidates[p.coords] = p

    points = []
    for key in sorted(candidates):
        p = candidates[key]
        incident = frozenset(
            i for i in range(v) if arr.subspace(i).contains_point(p)
        )
        edges = tuple(
            (i, j) for i, j, line in double_lines if line.contains_point(p)
        )
        points.append(SingularPoint(p, incident, edges))
    return IncidenceData(tuple(double_lines), tuple(point_meets), tuple(points))


@dataclass(frozen=True)
class SingularityType:
    kind: str  # "R" | "S" | "E" | "NonZappatic"
    n: int = 0
    reason: str = ""
    central: int | None = None
    vertex_order: tuple[int, ...] = ()

    @property
    def tag(self) -> str:
        if self.kind == "NonZappatic":
            return f"NonZappatic({self.reason})"
        return f"{self.kind}{self.n}"

    def is_zappatic(self) -> bool:
        return self.kind in ("R", "S", "E")


def _graph_shape(vertices, edges):
    """Classify the local graph: ('chain'|'cycle'|'fork', order) or None.

    order: for a chain the path from one end, for a cycle a closed walk,
    for a fork the center followed by the sorted leaves.
    """
    deg = Counter()
    adj = {v: [] for v in vertices}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    n = len(vertices)
    ne = len(edges)
    if len(set(edges)) != ne:
        return None
    # connectivity
    start = min(vertices)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != n:
        return None
    degs = sorted(deg[v] for v in vertices)
    if ne == n - 1 and degs == [1, 1] + [2] * (n - 2):
        end = min(v for v in vertices if deg[v] == 1)
        order = [end]
        prev = None
        while len(order) < n:
            nxt = next(y for y in adj[order[-1]] if y != prev)
            prev = order[-1]
            order.append(nxt)
        return "chain", tuple(order)
    if ne == n and degs == [2] * n:
        order = [start]
        prev = None
        while len(order) < n:
            nxt = next(y for y in adj[order[-1]] if y != prev)
            prev = order[-1]
            order.append(nxt)
        return "cycle", tuple(order)
    if ne == n - 1 and n >= 4 and degs == [1] * (n - 1) + [n - 1]:
        center = next(v for v in vertices if deg[v] == n - 1)
        leaves = sorted(v for v in vertices if v != center)
        return "fork", tuple([center] + leaves)
    return None


def classify_point(
    arr: Arrangement, inc: IncidenceData, point_index: int
) -> SingularityType:
    """Type of one singular point.

    Chain with maximal span (n+1) gives R_n, fork with span n+1 gives S_n,
    cycle with span n gives E_n.  A point where only two planes touch, or
    whose local graph or span fails the test, is not Zappatic.
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
    kind_name, order = shape
    span_dim = span_subspaces(
        [arr.subspace(i) for i in planes], arr.ambient_dim
    ).dim
    if kind_name == "chain":
        if span_dim != n + 1:
            return SingularityType("NonZappatic", n, "span too small")
        central = order[1] if n == 3 else None
        return SingularityType("R", n, central=central, vertex_order=order)
    if kind_name == "fork":
        if span_dim != n + 1:
            return SingularityType("NonZappatic", n, "span too small")
        return SingularityType("S", n, central=order[0], vertex_order=order)
    if span_dim != n:
        return SingularityType("NonZappatic", n, "span too small")
    return SingularityType("E", n, vertex_order=order)


@dataclass(frozen=True)
class ZappaticReport:
    is_zappatic: bool
    r_counts: dict[int, int] = field(default_factory=dict)
    s_counts: dict[int, int] = field(default_factory=dict)
    f_counts: dict[int, int] = field(default_factory=dict)
    violations: tuple[str, ...] = ()
    types: tuple[SingularityType, ...] = ()

    def count(self, kind: str, n: int) -> int:
        table = {"R": self.r_counts, "S": self.s_counts, "E": self.f_counts}[kind]
        return table.get(n, 0)


def zappatic_report(arr: Arrangement, inc: IncidenceData | None = None) -> ZappaticReport:
    """Aggregate classification of every singular point.

    The arrangement is Zappatic iff every singular point classifies as
    R_n/S_n/E_n, every point-meet pair is absorbed into such a point (the
    two planes are non-adjacent members of its local graph), and every
    double line lies on exactly two planes.
    """
    if inc is None:
        inc = compute_incidence(arr)
    violations = []
    r_counts: Counter = Counter()
    s_counts: Counter = Counter()
    f_counts: Counter = Counter()
    types = []
    point_index = {sp.point.coords: k for k, sp in enumerate(inc.singular_points)}

    for i, j, line in inc.double_lines:
        extra = [
            k
            for k in range(len(arr))
            if k not in (i, j) and arr.subspace(k).contains(line)
        ]
        if extra:
            violations.append(
                f"double line of planes ({i},{j}) lies on {len(extra) + 2} planes"
            )

    for k, sp in enumerate(inc.singular_points):
        t = classify_point(arr, inc, k)
        types.append(t)
        if t.kind == "R":
            r_counts[t.n] += 1
        elif t.kind == "S":
            s_counts[t.n] += 1
        elif t.kind == "E":
            f_counts[t.n] += 1
        else:
            coords = list(sp.point.coords)
            violations.append(f"point {coords}: {t.reason}")

    for i, j, p in inc.point_meets:
        k = point_index.get(p.coords)
        if k is None:
            violations.append(
                f"planes ({i},{j}) meet at an unclassified point"
            )
            continue
        if not types[k].is_zappatic():
            continue  # already reported through the point itself
        order = types[k].vertex_order
        if i not in order or j not in order:
            violations.append(
                f"planes ({i},{j}) touch a singular point they are not part of"
            )

    return ZappaticReport(
        is_zappatic=not violations,
        r_counts=dict(r_counts),
        s_counts=dict(s_counts),
        f_counts=dict(f_counts),
        violations=tuple(violations),
        types=tuple(types),
    )

