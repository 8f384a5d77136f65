"""Explicit plane configurations: chains, cycles and attachments.

The base families are exact coordinate constructions (consecutive coordinate
point triples).  Higher genus is reached inductively by attaching pieces to
two chosen planes: the degenerate quadric (two planes through the common
transversal of a line in each chosen plane, for X, Y and the closed chain)
or the degenerate cubic scroll (three planes in a general P^4, for Z).
Every family is built in its final P^(d-2g+1) from its first plane, so the
planes, the incidence and every attachment record share one ambient; a
cubic scroll reaches out of the span of the old planes through a point q3
on the first coordinate that no old plane uses.

The quadric takes the two planes and their anchors (an R_3 point the line
must pass through, or none for a free line) and nothing else; what it
tolerates is read off the arrangement.  A free line avoids the singular
points of its plane.  The 3-space of the two lines meets any other plane in
at most a point, except that it may meet one in a line when it is a
hyperplane (ambient P^4), or in the line joining the two anchors.

Both go through one engine, ``_attach``.  A proposal function samples the
lines and the new planes from a seeded generator and may reject a choice
early (skew lines, transversality of their span).  A declarative expectation
says what the union must look like afterwards: the change in the R_3 and S_4
counts, no cycle point, and the type ``(kind, n, central)`` of each anchor and
each sampled point.  The engine reclassifies the grown arrangement, checks it
is Zappatic and meets the expectation, and otherwise resamples (up to a fixed
retry cap), so every returned configuration carries a full witness of its own
genericity in its attachment records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations

from zappatic.arrangement import (
    Arrangement,
    IncidenceData,
    ZappaticReport,
    compute_incidence,
    zappatic_report,
)
from zappatic.complexes import DualGraph, build_dual_graph
from zappatic.errors import GenericityError, InternalCheckError, RangeError
from zappatic.invariants import check_dg_range
from zappatic.projective import ProjPoint, Subspace, meet, span, span_subspaces

RETRY_CAP = 64
SAMPLE_HEIGHT = 31


@dataclass(frozen=True)
class AttachmentRecord:
    chosen_planes: tuple[int, int]
    anchor_points: tuple[ProjPoint | None, ProjPoint | None]  # None = free line
    lines: tuple[Subspace, Subspace]
    span_pi: Subspace
    new_plane_indices: tuple[int, ...]
    seed: int
    retries: int


@dataclass(frozen=True)
class ConstructionResult:
    arrangement: Arrangement
    incidence: IncidenceData
    report: ZappaticReport
    graph: DualGraph
    attachments: tuple[AttachmentRecord, ...]
    discrepancies: tuple[str, ...]
    family: str
    d: int
    g: int
    seed: int | None

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


@dataclass(frozen=True)
class TransversalityReport:
    passed: bool
    positive_dims: tuple[tuple[int, int], ...]  # (plane index, intersection dim)
    offending: tuple[int, ...]


def verify_transversality(arr: Arrangement, pi: Subspace, expected) -> TransversalityReport:
    """Check that a 3-space meets the arrangement only along expected lines."""
    if pi.dim != 3:
        raise RangeError("transversality check requires a 3-dimensional subspace")
    expected = list(expected)
    positive = []
    offending = []
    for k in range(len(arr)):
        inter = meet(pi, arr.subspace(k))
        if inter.dim >= 1:
            positive.append((k, inter.dim))
            if inter not in expected:
                offending.append(k)
    return TransversalityReport(not offending, tuple(positive), tuple(offending))


def _finish(
    arr, attachments, discrepancies, family, d, g, seed, inc=None, report=None
) -> ConstructionResult:
    """Package a verified arrangement; pass inc/report when already computed."""
    if inc is None:
        inc = compute_incidence(arr)
    if report is None:
        report = zappatic_report(arr, inc)
    if not report.is_zappatic:
        raise InternalCheckError(
            f"{family} construction produced violations: {report.violations}"
        )
    graph = build_dual_graph(arr, inc, report)
    return ConstructionResult(
        arrangement=arr,
        incidence=inc,
        report=report,
        graph=graph,
        attachments=tuple(attachments),
        discrepancies=tuple(discrepancies),
        family=family,
        d=d,
        g=g,
        seed=seed,
    )


def chain_planes(d: int) -> ConstructionResult:
    """d planes on consecutive coordinate point triples of P^(d+1); dual
    graph a chain with d-2 R_3 points."""
    if d < 2:
        raise RangeError("chain requires d >= 2")
    n = d + 1
    subs = []
    for i in range(d):
        rows = [[1 if c == k else 0 for c in range(n + 1)] for k in (i, i + 1, i + 2)]
        subs.append(Subspace(n, rows))
    arr = Arrangement(n, subs)
    res = _finish(arr, (), (), "chain", d, 0, None)
    if res.report.r_counts.get(3, 0) != d - 2 or res.num_edges != d - 1:
        raise InternalCheckError("chain counts are off")
    return res


def _cycle(d: int, n: int) -> ConstructionResult:
    """d planes on cyclically consecutive triples of the first d coordinate
    points of P^n; dual graph a cycle with d R_3 points at those points."""
    subs = []
    for i in range(d):
        ks = ((i - 1) % d, i, (i + 1) % d)
        rows = [[1 if c == k else 0 for c in range(n + 1)] for k in ks]
        subs.append(Subspace(n, rows))
    res = _finish(Arrangement(n, subs), (), (), "cycle", d, 1, None)
    if res.report.r_counts.get(3, 0) != d or res.num_edges != d:
        raise InternalCheckError("cycle counts are off")
    return res


def cycle_planes(d: int) -> ConstructionResult:
    """d planes on cyclically consecutive coordinate triples of P^(d-1); dual
    graph a cycle with d R_3 points at the coordinate points."""
    if d < 5:
        raise RangeError("cycle requires d >= 5")
    return _cycle(d, d - 1)


# -- seeded sampling helpers ------------------------------------------------


def _random_point_in(sub: Subspace, rng: random.Random) -> ProjPoint:
    while True:
        coeffs = [rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT) for _ in sub.basis]
        vec = [
            sum(c * row[k] for c, row in zip(coeffs, sub.basis))
            for k in range(sub.ambient_dim + 1)
        ]
        if any(vec):
            return ProjPoint(vec)


def _line_through(plane_sub: Subspace, anchor: ProjPoint, rng) -> Subspace:
    while True:
        q = _random_point_in(plane_sub, rng)
        line = span([anchor, q], plane_sub.ambient_dim)
        if line.dim == 1:
            return line


def _free_line(plane_sub: Subspace, avoid, rng) -> Subspace:
    while True:
        line = span(
            [_random_point_in(plane_sub, rng), _random_point_in(plane_sub, rng)],
            plane_sub.ambient_dim,
        )
        if line.dim == 1 and not any(line.contains_point(p) for p in avoid):
            return line


def _r3_anchor(result: ConstructionResult, plane_index: int) -> ProjPoint:
    """The R_3 point whose central component is the given plane."""
    for k, t in enumerate(result.report.types):
        if t.kind == "R" and t.n == 3 and t.central == plane_index:
            return result.incidence.singular_points[k].point
    raise RangeError(
        f"plane {plane_index} is not the central component of any R_3 point"
    )


def _r3_centrals(result: ConstructionResult) -> list[int]:
    out = []
    for t in result.report.types:
        if t.kind == "R" and t.n == 3 and t.central is not None:
            out.append(t.central)
    return sorted(set(out))


def _touching(inc: IncidenceData) -> set[tuple[int, int]]:
    """Plane pairs (i, j), i < j, that meet: the incidence records every pair
    whose meet is a line or a point."""
    return {(i, j) for i, j, _ in inc.double_lines + inc.point_meets}


def first_disjoint_central_pair(result: ConstructionResult) -> tuple[int, int] | None:
    """First pair (in index order) of disjoint R_3 central planes."""
    touching = _touching(result.incidence)
    pairs = combinations(_r3_centrals(result), 2)
    return next((pair for pair in pairs if pair not in touching), None)


class _Retry(Exception):
    pass


def _sample_on_line(line: Subspace, anchor: ProjPoint | None, rng) -> ProjPoint:
    while True:
        p = _random_point_in(line, rng)
        if anchor is None or p != anchor:
            return p


def _attach(prev, planes, anchors, seed, propose, deltas) -> ConstructionResult:
    """Grow ``prev``'s arrangement by the first proposal that checks out.

    ``propose(rng)`` returns the chosen lines, the span recorded as
    ``span_pi``, the new planes and the ``(point, kind, n, central)`` types its
    sampled points must take; it raises ``_Retry`` to reject a choice early.
    The expectation on top of those points: every anchor becomes an S_4 point
    centred on its chosen plane, the R_3 and S_4 counts change by ``deltas``
    and no cycle point appears.  Each attempt meets only the pairs with a new
    plane: the incidence of the old planes is ``prev.incidence``.
    """
    rng = random.Random(seed)
    arr = prev.arrangement
    n = arr.ambient_dim
    old = prev.report
    r3_delta, s4_delta = deltas
    anchor_types = tuple((a, "S", 4, k) for a, k in zip(anchors, planes) if a is not None)
    last_reason = ""
    for attempt in range(RETRY_CAP):
        try:
            lines, span_pi, new_planes, points = propose(rng)
            if any(w.dim != 2 for w in new_planes):
                raise _Retry("degenerate new plane")
            try:
                new_arr = Arrangement(n, [p.subspace for p in arr.planes] + list(new_planes))
            except RangeError as exc:
                raise _Retry(str(exc))
            inc = compute_incidence(new_arr, prev.incidence)
            report = zappatic_report(new_arr, inc)
            if not report.is_zappatic:
                raise _Retry(f"not Zappatic after attachment: {report.violations[:2]}")
            if report.r_counts.get(3, 0) != old.r_counts.get(3, 0) + r3_delta:
                raise _Retry("unexpected R_3 count")
            if report.s_counts.get(4, 0) != old.s_counts.get(4, 0) + s4_delta:
                raise _Retry("unexpected S_4 count")
            if report.f_counts != old.f_counts:
                raise _Retry("unexpected cycle-point count")
            point_types = {
                inc.singular_points[k].point.coords: t for k, t in enumerate(report.types)
            }
            for point, kind, n_planes, central in anchor_types + points:
                t = point_types.get(point.coords)
                if t is None or (t.kind, t.n, t.central) != (kind, n_planes, central):
                    raise _Retry(f"{point} did not become {kind}_{n_planes} on plane {central}")
        except _Retry as exc:
            last_reason = str(exc)
            continue
        rec = AttachmentRecord(
            chosen_planes=planes,
            anchor_points=anchors,
            lines=lines,
            span_pi=span_pi,
            new_plane_indices=tuple(range(len(arr), len(new_arr))),
            seed=seed,
            retries=attempt,
        )
        return _finish(
            new_arr,
            prev.attachments + (rec,),
            prev.discrepancies,
            prev.family,
            prev.d + len(new_planes),
            prev.g + 1,
            seed,
            inc,
            report,
        )
    raise GenericityError(
        f"no generic attachment found for planes {planes} after {RETRY_CAP} tries;"
        f" last failure: {last_reason}"
    )


def _attach_pair(
    result: ConstructionResult,
    i: int,
    j: int,
    seed: int,
    anchor1: ProjPoint | None,
    anchor2: ProjPoint | None,
) -> ConstructionResult:
    """Attach the degenerate quadric through a line in plane i and one in j.

    A line runs through its plane's anchor, or is free (anchor None) and then
    avoids every singular point of its plane.  The 3-space pi of the two
    lines must meet planes i and j in exactly those lines and every other
    plane in at most a point, with two exceptions read off the arrangement:
    in P^4 pi is a hyperplane and meets every plane in at least a line, so a
    line is allowed there; and with both anchors given, a plane through both
    meets pi in the line joining them, which is allowed too.
    """
    arr = result.arrangement
    n = arr.ambient_dim
    plane_i, plane_j = arr.subspace(i), arr.subspace(j)
    singular = result.incidence.singular_points
    avoid1 = [sp.point for sp in singular if i in sp.incident_planes]
    avoid2 = [sp.point for sp in singular if j in sp.incident_planes]
    anchor_line = None
    if anchor1 is not None and anchor2 is not None:
        anchor_line = span([anchor1, anchor2], n)

    def propose(rng):
        line1 = (
            _line_through(plane_i, anchor1, rng)
            if anchor1 is not None
            else _free_line(plane_i, avoid1, rng)
        )
        line2 = (
            _line_through(plane_j, anchor2, rng)
            if anchor2 is not None
            else _free_line(plane_j, avoid2, rng)
        )
        pi = span_subspaces([line1, line2], n)
        if pi.dim != 3:
            raise _Retry("the two lines are not skew")
        for k in range(len(arr)):
            inter = meet(pi, arr.subspace(k))
            if k in (i, j):
                if inter != (line1 if k == i else line2):
                    raise _Retry(f"3-space meets plane {k} beyond the chosen line")
            elif inter.dim >= 1:
                if inter.dim == 1 and (pi.dim == n - 1 or inter == anchor_line):
                    continue
                raise _Retry(f"3-space meets plane {k} in dimension {inter.dim}")
        x1 = _sample_on_line(line1, anchor1, rng)
        x2 = _sample_on_line(line2, anchor2, rng)
        w_l2 = span_subspaces([line2, span([x1], n)], n)  # plane through l2 and the transversal
        w_l1 = span_subspaces([line1, span([x2], n)], n)
        points = ((x1, "R", 3, len(arr) + 1), (x2, "R", 3, len(arr)))
        return (line1, line2), pi, (w_l2, w_l1), points

    anchored = sum(a is not None for a in (anchor1, anchor2))
    return _attach(
        result, (i, j), (anchor1, anchor2), seed, propose, (4 - 2 * anchored, anchored)
    )


def attach_handle(result: ConstructionResult, i: int, j: int, seed: int) -> ConstructionResult:
    """Attach a degenerate quadric joining two disjoint R_3 central planes.

    The two anchors become S_4 points and two new R_3 points appear on the
    common transversal of the chosen lines.
    """
    if i == j or (min(i, j), max(i, j)) in _touching(result.incidence):
        raise RangeError(f"planes {i} and {j} are not disjoint")
    anchor1 = _r3_anchor(result, i)
    anchor2 = _r3_anchor(result, j)
    return _attach_pair(result, i, j, seed, anchor1, anchor2)


def cycle_from_chain(d: int, seed: int) -> ConstructionResult:
    """Close a chain of d-2 planes into a degree-d cycle with two new planes.

    The two end planes are joined by a quadric on free lines.  For d = 5 the
    chain spans only P^4, so the 3-space of the two lines is a hyperplane and
    meets the central plane of the chain in an extra line, which is tolerated
    (and recorded through the attachment's span); for d >= 6 it meets the
    rest of the chain in at most points.
    """
    if d < 5:
        raise RangeError("cycle requires d >= 5")
    res = _attach_pair(chain_planes(d - 2), 0, d - 3, seed, None, None)
    res = replace(res, family="cycle_from_chain")
    if res.report.r_counts.get(3, 0) != d or res.num_edges != d:
        raise InternalCheckError("closed chain counts are off")
    return res


def build_X(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """The main family: chain (g=0), cycle (g=1), or a cycle of degree
    d-2(g-1) with g-1 quadric handles, giving d-2g+2 R_3 and 2g-2 S_4 points
    in P^(d-2g+1)."""
    check_dg_range(d, g)
    if g == 0:
        return chain_planes(d)
    if g == 1:
        return cycle_planes(d)
    rng = random.Random(seed)
    result = cycle_planes(d - 2 * (g - 1))
    for _ in range(g - 1):
        pair = first_disjoint_central_pair(result)
        if pair is None:
            raise InternalCheckError("no two R_3 central planes are disjoint")
        result = attach_handle(result, pair[0], pair[1], rng.randrange(2**63))
    note = (
        f"edge count discrepancy: alternative tally 3g+6+c (c = d-2g-4) gives "
        f"{d + g + 2}, inconsistent with g = e-v+1; derived value e = d+g-1 = "
        f"{d + g - 1} is used"
    )
    result = replace(
        result, discrepancies=result.discrepancies + (note,), family="X", seed=seed
    )
    _check_family_profile(result, d, g)
    if first_disjoint_central_pair(result) is None:
        raise InternalCheckError("no two R_3 central planes are disjoint in the result")
    return result


def _check_family_profile(result: ConstructionResult, d: int, g: int) -> None:
    rep = result.report
    ok = (
        len(result.arrangement) == d
        and result.num_edges == d + g - 1
        and rep.r_counts.get(3, 0) == d - 2 * g + 2
        and rep.s_counts.get(4, 0) == (2 * g - 2 if g >= 1 else 0)
        and sum(rep.f_counts.values()) == 0
    )
    if not ok:
        raise InternalCheckError(
            f"family profile mismatch for (d,g)=({d},{g}): v={len(result.arrangement)}"
            f" e={result.num_edges} r={rep.r_counts} s={rep.s_counts}"
        )


def build_Y(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """Chain of d-2g planes with g quadric pairs attached: the outermost pair
    hangs on free lines of the two end planes, the inner pairs on lines
    through the R_3 points p_i and p_(d-2g+1-i) centred on planes i-1 and
    d-2g-i."""
    if g < 2:
        raise RangeError("requires g >= 2")
    if d <= 4 * g:
        raise RangeError("requires d > 4g")
    rng = random.Random(seed)
    k = d - 2 * g
    result = _attach_pair(chain_planes(k), 0, k - 1, rng.randrange(2**63), None, None)
    for i in range(2, g + 1):
        anchor1 = _r3_anchor(result, i - 1)
        anchor2 = _r3_anchor(result, k - i)
        result = _attach_pair(result, i - 1, k - i, rng.randrange(2**63), anchor1, anchor2)
    result = replace(result, family="Y", seed=seed)
    _check_family_profile(result, d, g)
    return result


def _z_step(prev: ConstructionResult, seed: int) -> ConstructionResult:
    """Attach a degenerate cubic scroll (three planes in a general P^4).

    The build already lives in its final P^(d-2g+1).  The sampled point q3
    takes the first coordinate that no old plane uses, so the P^4 of the new
    planes leaves the span of the old ones.
    """
    arr = prev.arrangement
    n = arr.ambient_dim
    free = 1 + max(max(p.subspace.support) for p in arr.planes)
    # with no two disjoint R_3 central planes (the 5-cycle has none), take
    # the first pair meeting in a point only
    pair = first_disjoint_central_pair(prev) or next(
        ((a, b) for a, b, _ in prev.incidence.point_meets), None
    )
    if pair is None:
        raise InternalCheckError("no admissible plane pair for the cubic attachment")
    i, j = pair
    anchor1 = _r3_anchor(prev, i)
    anchor2 = _r3_anchor(prev, j)
    plane_i, plane_j = arr.subspace(i), arr.subspace(j)

    def propose(rng):
        line1 = _line_through(plane_i, anchor1, rng)
        line2 = _line_through(plane_j, anchor2, rng)
        pi3 = span_subspaces([line1, line2], n)
        if pi3.dim != 3:
            raise _Retry("the two lines are not skew")
        # a general point off the span of the old planes fixes the P^4
        q3 = ProjPoint(
            [rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT) for _ in range(free)]
            + [rng.randint(1, SAMPLE_HEIGHT)]
            + [0] * (n - free)
        )
        q2 = _sample_on_line(line2, anchor2, rng)
        q4 = _sample_on_line(line1, anchor1, rng)
        p3 = span([q3], n)
        w1 = span_subspaces([line2, p3], n)
        w2 = span([q2, q3, q4], n)
        w3 = span_subspaces([line1, p3], n)
        base = len(arr)
        points = (
            (q2, "R", 3, base),  # chain V_j - W1 - W2
            (q3, "R", 3, base + 1),  # chain W1 - W2 - W3
            (q4, "R", 3, base + 2),  # chain V_i - W3 - W2
        )
        return (line1, line2), span_subspaces([pi3, p3], n), (w1, w2, w3), points

    return _attach(prev, pair, (anchor1, anchor2), seed, propose, (1, 2))


def build_Z(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """Cycle for g=1, then one degenerate cubic scroll (three planes in a
    general P^4) per extra genus, adding 3 planes and 4 double lines each.

    The base cycle of d-3(g-1) planes sits on the first d-3g+3 coordinates of
    the final P^(d-2g+1); each step's q3 takes the next unused coordinate.
    """
    if g < 1:
        raise RangeError("requires g >= 1")
    if d < 3 * g + 2:
        raise RangeError("requires d >= 3g+2")
    note = (
        f"edge count discrepancy: alternative tally d-2g+1 gives {d - 2 * g + 1},"
        f" inconsistent with g = e-v+1; derived value e = d+g-1 = {d + g - 1}"
        f" is used"
    )
    rng = random.Random(seed)
    seeds = [rng.randrange(2**63) for _ in range(g - 1)]
    result = _cycle(d - 3 * (g - 1), d - 2 * g + 1)
    for s in seeds:
        result = _z_step(result, s)
    result = replace(result, discrepancies=(note,), family="Z", seed=seed)
    _check_family_profile(result, d, g)
    return result
