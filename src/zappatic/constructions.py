"""Explicit plane configurations: chains, cycles and attachments.

The chain and cycle are Stanley-Reisner arrangements of a triangulated strip
and annulus: ``_coordinate_planes`` sets the coordinate plane on each vertex
triple.  Higher genus is reached inductively by attaching pieces to two
chosen planes: the degenerate quadric (two planes through the common
transversal of a line in each chosen plane, for X, Y and the closed chain)
or the degenerate cubic scroll (three planes in a general P^4, for Z).
Every family is built in its final P^(d-2g+1) from its first plane, so the
planes, the incidence and every attachment record share one ambient; a
cubic scroll reaches out of the span of the old planes through a point q3
on the first coordinate that no old plane uses.

Both go through one engine, ``_attach``, which draws the line pair: a line
in each chosen plane, either through the R_3 point centred on that plane
(so the anchors come from the chosen planes) or free, avoiding the singular
points of its plane; the two lines must be skew.  A
completion function then samples the new planes from the same seeded
generator and may reject a choice early.  The quadric's completion checks the
3-space of the two lines for transversality, with tolerances read off the
arrangement: it meets any other plane in at most a point, except that it may
meet one in a line when it is a hyperplane (ambient P^4), or in the line
joining the two anchors.  The cubic scroll's completion adds its point q3.

A declarative expectation says what the union must look like afterwards: the
change in the R_3 and S_4 counts, no cycle point, and the type
``(kind, n, central)`` of each anchor and each sampled point.  The engine
reclassifies the grown arrangement, checks it is Zappatic and meets the
expectation, and otherwise resamples (up to a fixed retry cap), so every
returned configuration carries a full witness of its own genericity in its
attachment records.

A build is named once: ``_finish`` packages a verified arrangement, and each
builder ends in ``_named``, which checks its family's counts and sets family,
seed and discrepancy note (an intermediate result has family "", seed None).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from operator import mul

from zappatic import linalg
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
from zappatic.projective import (
    ProjPoint,
    Subspace,
    coordinate_subspace,
    meet_dim,
    span,
    span_subspaces,
)

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
    attachments: tuple[AttachmentRecord, ...]
    discrepancies: tuple[str, ...] = ()
    family: str = ""
    seed: int | None = None

    @cached_property
    def graph(self) -> DualGraph:
        """The dual graph, built on first read: a build reads only the
        graph of the result it returns, never those of its intermediates."""
        return build_dual_graph(self.arrangement, self.incidence, self.report)

    @property
    def num_edges(self) -> int:
        """One edge of the dual graph per double line."""
        return len(self.incidence.double_lines)

    @property
    def d(self) -> int:
        """The degree: one plane per unit of degree."""
        return len(self.arrangement)

    @property
    def g(self) -> int:
        """The sectional genus e - v + 1."""
        return self.num_edges - len(self.arrangement) + 1


def _finish(arr, attachments=(), inc=None, report=None) -> ConstructionResult:
    """Package a verified arrangement; pass inc/report when already computed."""
    if inc is None:
        inc = compute_incidence(arr)
    if report is None:
        report = zappatic_report(arr, inc)
    if not report.is_zappatic:
        raise InternalCheckError(f"construction produced violations: {report.violations}")
    return ConstructionResult(arr, inc, report, tuple(attachments))


def _named(result, family, d, g, seed=None, note=None) -> ConstructionResult:
    """Check the counts of a degree-d genus-g family and name the build: d
    planes, d+g-1 double lines, no cycle point, 2g-2 S_4 points from genus 2
    on, and d-2 R_3 points on a chain (g = 0), d-2g+2 otherwise."""
    rep = result.report
    ok = (
        len(result.arrangement) == d
        and result.num_edges == d + g - 1
        and rep.r_counts.get(3, 0) == (d - 2 * g + 2 if g else d - 2)
        and rep.s_counts.get(4, 0) == max(0, 2 * g - 2)
        and sum(rep.f_counts.values()) == 0
    )
    if not ok:
        raise InternalCheckError(
            f"family profile mismatch for (d,g)=({d},{g}): v={len(result.arrangement)}"
            f" e={result.num_edges} r={rep.r_counts} s={rep.s_counts}"
        )
    return replace(result, discrepancies=(note,) if note else (), family=family, seed=seed)


def _coordinate_planes(n: int, triples) -> ConstructionResult:
    """The coordinate plane of P^n on each vertex triple of a triangulation."""
    return _finish(Arrangement(n, [coordinate_subspace(n, t) for t in triples]))


def chain_planes(d: int) -> ConstructionResult:
    """d planes on consecutive coordinate point triples of P^(d+1); dual
    graph a chain with d-2 R_3 points."""
    if d < 2:
        raise RangeError("chain requires d >= 2")
    res = _coordinate_planes(d + 1, [(i, i + 1, i + 2) for i in range(d)])
    return _named(res, "chain", d, 0)


def _cycle(d: int, n: int) -> ConstructionResult:
    """d planes on cyclically consecutive triples of the first d coordinate
    points of P^n; dual graph a cycle with d R_3 points at those points."""
    res = _coordinate_planes(n, [((i - 1) % d, i, (i + 1) % d) for i in range(d)])
    return _named(res, "cycle", d, 1)


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
        vec = [sum(map(mul, coeffs, col)) for col in zip(*sub.basis)]
        if any(vec):
            return ProjPoint(vec)


def _line_in(plane: Subspace, anchor: ProjPoint | None, avoid, rng) -> Subspace:
    """A line in ``plane`` through the anchor (or a sampled point when there
    is none) and a second sampled point, holding no point of ``avoid``.

    A point lies on the line when it adds nothing to the rank of the line's
    two rows, so each try ranks one stacked matrix per avoided point and
    takes no equations of a line it may throw away."""
    while True:
        first = anchor if anchor is not None else _random_point_in(plane, rng)
        line = span([first, _random_point_in(plane, rng)], plane.ambient_dim)
        if line.dim == 1 and all(linalg.rank([*line.basis, p.coords]) == 3 for p in avoid):
            return line


def _r3_centres(result: ConstructionResult) -> dict[int, ProjPoint]:
    """Each R_3 central plane and its R_3 point, the first in incidence order."""
    centres: dict[int, ProjPoint] = {}
    for sp, t in zip(result.incidence.singular_points, result.report.types):
        if t.kind == "R" and t.n == 3:
            centres.setdefault(t.central, sp.point)
    return centres


def _touching(inc: IncidenceData) -> set[tuple[int, int]]:
    """Plane pairs (i, j), i < j, that meet: the incidence records every pair
    whose meet is a line or a point."""
    return {(i, j) for i, j, _ in inc.double_lines + inc.point_meets}


def first_disjoint_central_pair(result: ConstructionResult) -> tuple[int, int] | None:
    """First pair (in index order) of disjoint R_3 central planes."""
    touching = _touching(result.incidence)
    pairs = combinations(sorted(_r3_centres(result)), 2)
    return next((pair for pair in pairs if pair not in touching), None)


class _Retry(Exception):
    pass


def _sample_on_line(line: Subspace, anchor: ProjPoint | None, rng) -> ProjPoint:
    while True:
        p = _random_point_in(line, rng)
        if anchor is None or p != anchor:
            return p


def _attach(prev, planes, anchored, seed, complete, deltas) -> ConstructionResult:
    """Grow ``prev``'s arrangement by the first attachment that checks out.

    The engine draws the line pair: with ``anchored`` each line runs through
    the R_3 point centred on its chosen plane, otherwise it is free and holds
    no singular point of its plane.  The two lines must be skew.
    ``complete(lines, pi, anchors, rng)``, with pi the 3-space of the lines,
    returns the span recorded as ``span_pi``, the new planes and the
    ``(point, kind, n, central)`` types its sampled points must take; it
    raises ``_Retry`` to reject a choice early.  The expectation on top of
    those points: every anchor becomes an S_4 point centred on its chosen
    plane, the R_3 and S_4 counts change by ``deltas`` and no cycle point
    appears.  Each attempt meets only the pairs with a new plane, and
    classifies only the points a new plane passes through: the incidence and
    report of the old planes are ``prev.incidence`` and ``prev.report``.
    """
    rng = random.Random(seed)
    arr = prev.arrangement
    n = arr.ambient_dim
    old = prev.report
    r3_delta, s4_delta = deltas
    if anchored:
        centres = _r3_centres(prev)
        for k in planes:
            if k not in centres:
                raise RangeError(f"plane {k} is not the central component of any R_3 point")
        anchors = tuple(centres[k] for k in planes)
        avoids = ((), ())
    else:
        anchors = (None, None)
        avoids = tuple(
            [sp.point for sp in prev.incidence.singular_points if k in sp.incident_planes]
            for k in planes
        )
    anchor_types = tuple((a, "S", 4, k) for a, k in zip(anchors, planes) if a is not None)
    last_reason = ""
    for attempt in range(RETRY_CAP):
        try:
            lines = tuple(
                _line_in(arr.planes[k], a, avoid, rng)
                for k, a, avoid in zip(planes, anchors, avoids)
            )
            pi = span_subspaces(lines, n)
            if pi.dim != 3:
                raise _Retry("the two lines are not skew")
            span_pi, new_planes, points = complete(lines, pi, anchors, rng)
            try:
                new_arr = Arrangement(n, arr.planes + new_planes)
            except RangeError as exc:
                raise _Retry(str(exc))
            inc = compute_incidence(new_arr, prev.incidence)
            report = zappatic_report(new_arr, inc, (prev.incidence, old))
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
        return _finish(new_arr, prev.attachments + (rec,), inc, report)
    raise GenericityError(
        f"no generic attachment found for planes {planes} after {RETRY_CAP} tries;"
        f" last failure: {last_reason}"
    )


def _attach_pair(
    result: ConstructionResult, i: int, j: int, seed: int, anchored: bool
) -> ConstructionResult:
    """Attach the degenerate quadric through a line in plane i and one in j.

    The lines run through the R_3 points of planes i and j when ``anchored``,
    and are free otherwise.  The 3-space pi of the two lines must meet planes
    i and j in exactly those lines and every other plane in at most a point,
    with two exceptions read off the arrangement: in P^4 pi is a hyperplane
    and meets every plane in at least a line, so a line is allowed there; and
    with anchors, a plane through both meets pi in the line joining them,
    which is allowed too.
    """
    arr = result.arrangement
    n = arr.ambient_dim

    def complete(lines, pi, anchors, rng):
        line1, line2 = lines
        for k in range(len(arr)):
            if k in (i, j):
                # pi and plane k share the chosen line, so they meet beyond
                # it exactly when the plane lies in pi
                if pi.contains(arr.planes[k]):
                    raise _Retry(f"3-space meets plane {k} beyond the chosen line")
                continue
            # pi holds the anchors' line, so a line meet is that line exactly
            # when plane k holds both anchors
            dim = meet_dim(pi, arr.planes[k])
            if dim >= 1:
                if dim == 1 and (
                    pi.dim == n - 1
                    or (anchored and all(map(arr.planes[k].contains_point, anchors)))
                ):
                    continue
                raise _Retry(f"3-space meets plane {k} in dimension {dim}")
        x1 = _sample_on_line(line1, anchors[0], rng)
        x2 = _sample_on_line(line2, anchors[1], rng)
        w_l2 = span_subspaces([line2, span([x1], n)], n)  # plane through l2 and the transversal
        w_l1 = span_subspaces([line1, span([x2], n)], n)
        points = ((x1, "R", 3, len(arr) + 1), (x2, "R", 3, len(arr)))
        return pi, (w_l2, w_l1), points

    return _attach(result, (i, j), anchored, seed, complete, (0, 2) if anchored else (4, 0))


def attach_handle(result: ConstructionResult, i: int, j: int, seed: int) -> ConstructionResult:
    """Attach a degenerate quadric joining two disjoint R_3 central planes.

    The two anchors become S_4 points and two new R_3 points appear on the
    common transversal of the chosen lines.
    """
    if i == j or (min(i, j), max(i, j)) in _touching(result.incidence):
        raise RangeError(f"planes {i} and {j} are not disjoint")
    return _attach_pair(result, i, j, seed, True)


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
    res = _attach_pair(chain_planes(d - 2), 0, d - 3, seed, False)
    return _named(res, "cycle_from_chain", d, 1, seed)


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
    if first_disjoint_central_pair(result) is None:
        raise InternalCheckError("no two R_3 central planes are disjoint in the result")
    return _named(result, "X", d, g, seed, note)


def build_Y(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """Chain of d-2g planes with g quadric pairs attached: the outermost pair
    hangs on free lines of the two end planes, closing the chain into a
    cycle as ``cycle_from_chain`` does, and the inner pairs on lines
    through the R_3 points p_i and p_(d-2g+1-i) centred on planes i-1 and
    d-2g-i."""
    if g < 2:
        raise RangeError("requires g >= 2")
    if d <= 4 * g:
        raise RangeError("requires d > 4g")
    rng = random.Random(seed)
    k = d - 2 * g
    result = cycle_from_chain(k + 2, rng.randrange(2**63))
    for i in range(2, g + 1):
        result = _attach_pair(result, i - 1, k - i, rng.randrange(2**63), True)
    return _named(result, "Y", d, g, seed)


def _z_step(prev: ConstructionResult, seed: int) -> ConstructionResult:
    """Attach a degenerate cubic scroll (three planes in a general P^4).

    The build already lives in its final P^(d-2g+1).  The sampled point q3
    takes the first coordinate that no old plane uses, so the P^4 of the new
    planes leaves the span of the old ones.
    """
    arr = prev.arrangement
    n = arr.ambient_dim
    free = 1 + max(max(p.support) for p in arr.planes)
    # with no two disjoint R_3 central planes (the 5-cycle has none), take
    # the first pair meeting in a point only
    pair = first_disjoint_central_pair(prev) or next(
        ((a, b) for a, b, _ in prev.incidence.point_meets), None
    )
    if pair is None:
        raise InternalCheckError("no admissible plane pair for the cubic attachment")

    def complete(lines, pi, anchors, rng):
        line1, line2 = lines
        # a general point off the span of the old planes fixes the P^4
        q3 = ProjPoint(
            [rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT) for _ in range(free)]
            + [rng.randint(1, SAMPLE_HEIGHT)]
            + [0] * (n - free)
        )
        q2 = _sample_on_line(line2, anchors[1], rng)
        q4 = _sample_on_line(line1, anchors[0], rng)
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
        return span_subspaces([pi, p3], n), (w1, w2, w3), points

    return _attach(prev, pair, True, seed, complete, (1, 2))


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
    result = _cycle(d - 3 * (g - 1), d - 2 * g + 1)
    for _ in range(g - 1):
        result = _z_step(result, rng.randrange(2**63))
    return _named(result, "Z", d, g, seed, note)
