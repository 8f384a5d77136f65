"""Explicit plane configurations: chains, cycles and handle attachments.

The base families are exact coordinate constructions (consecutive coordinate
point triples).  Higher genus is reached inductively: pick two planes, draw a
line in each (through a prescribed chain point, or freely on an end plane),
and replace the smooth quadric through the two skew lines by its degenerate
limit, a pair of planes through a common transversal.  "General" choices are
sampled from a seeded generator and then verified: the span of the two lines
must be a P^3 meeting the rest of the configuration in at most points, and
the reclassified singular points must come out exactly as predicted.  A
choice that fails any check is resampled (up to a fixed retry cap), so every
returned configuration carries a full witness of its own genericity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from zappatic.arrangement import (
    Arrangement,
    IncidenceData,
    ZappaticReport,
    compute_incidence,
    zappatic_report,
)
from zappatic.complexes import DualGraph, build_dual_graph
from zappatic.errors import GenericityError, InternalCheckError, RangeError
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


def _coord_point(i: int, n: int) -> ProjPoint:
    return ProjPoint([1 if j == i else 0 for j in range(n + 1)])


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


def cycle_planes(d: int) -> ConstructionResult:
    """d planes on cyclically consecutive coordinate triples of P^(d-1); dual
    graph a cycle with d R_3 points at the coordinate points."""
    if d < 5:
        raise RangeError("cycle requires d >= 5")
    n = d - 1
    subs = []
    for i in range(d):
        ks = ((i - 1) % d, i, (i + 1) % d)
        rows = [[1 if c == k else 0 for c in range(n + 1)] for k in ks]
        subs.append(Subspace(n, rows))
    arr = Arrangement(n, subs)
    res = _finish(arr, (), (), "cycle", d, 1, None)
    if res.report.r_counts.get(3, 0) != d or res.num_edges != d:
        raise InternalCheckError("cycle counts are off")
    return res


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


def first_disjoint_central_pair(result: ConstructionResult) -> tuple[int, int] | None:
    """First pair (in index order) of disjoint R_3 central planes."""
    centrals = _r3_centrals(result)
    for a in range(len(centrals)):
        for b in range(a + 1, len(centrals)):
            i, j = centrals[a], centrals[b]
            if meet(result.arrangement.subspace(i), result.arrangement.subspace(j)).is_empty():
                return (i, j)
    return None


class _Retry(Exception):
    pass


def _attach_once(result, i, j, line1, line2, rng, allowed_extra, expect):
    arr = result.arrangement
    n = arr.ambient_dim
    pi = span_subspaces([line1, line2], n)
    if pi.dim != 3:
        raise _Retry("the two lines are not skew")
    anchor_line = expect["anchor_line"]
    for k in range(len(arr)):
        inter = meet(pi, arr.subspace(k))
        if k == i:
            if inter != line1:
                raise _Retry(f"3-space meets plane {k} beyond the chosen line")
        elif k == j:
            if inter != line2:
                raise _Retry(f"3-space meets plane {k} beyond the chosen line")
        elif inter.dim >= 1:
            if k in allowed_extra and inter.dim == 1:
                continue
            # A plane through both anchors always meets the 3-space in the
            # line joining them; the attachment touches it at the anchors
            # only, so tolerate exactly that line when the caller opts in.
            if anchor_line is not None and inter == anchor_line:
                continue
            raise _Retry(f"3-space meets plane {k} in dimension {inter.dim}")

    anchor1, anchor2 = expect["anchors"]
    x1 = _sample_on_line(line1, anchor1, rng)
    x2 = _sample_on_line(line2, anchor2, rng)
    w_l2 = span_subspaces([line2, span([x1], n)], n)  # plane through l2 and the transversal
    w_l1 = span_subspaces([line1, span([x2], n)], n)
    if w_l2.dim != 2 or w_l1.dim != 2:
        raise _Retry("degenerate new plane")
    try:
        new_arr = Arrangement(n, [p.subspace for p in arr.planes] + [w_l2, w_l1])
    except RangeError as exc:
        raise _Retry(str(exc))
    idx_l2 = len(arr)
    idx_l1 = len(arr) + 1

    inc = compute_incidence(new_arr)
    report = zappatic_report(new_arr, inc)
    if not report.is_zappatic:
        raise _Retry(f"not Zappatic after attachment: {report.violations[:2]}")
    old = result.report
    if report.r_counts.get(3, 0) != old.r_counts.get(3, 0) + expect["r3_delta"]:
        raise _Retry("unexpected R_3 count")
    if report.s_counts.get(4, 0) != old.s_counts.get(4, 0) + expect["s4_delta"]:
        raise _Retry("unexpected S_4 count")
    if report.f_counts != old.f_counts:
        raise _Retry("unexpected cycle-point count")
    point_types = {
        inc.singular_points[k].point.coords: t for k, t in enumerate(report.types)
    }
    for anchor, central in ((anchor1, i), (anchor2, j)):
        if anchor is not None:
            t = point_types.get(anchor.coords)
            if t is None or t.kind != "S" or t.n != 4 or t.central != central:
                raise _Retry("anchor did not become an S_4 point")
    for x, central in ((x1, idx_l1), (x2, idx_l2)):
        t = point_types.get(x.coords)
        if t is None or t.kind != "R" or t.n != 3 or t.central != central:
            raise _Retry("new chain point misclassified")
    return new_arr, (idx_l2, idx_l1), pi, inc, report


def _sample_on_line(line: Subspace, anchor: ProjPoint | None, rng) -> ProjPoint:
    while True:
        p = _random_point_in(line, rng)
        if anchor is None or p != anchor:
            return p


def _attach_pair(
    result: ConstructionResult,
    i: int,
    j: int,
    seed: int,
    *,
    anchor1: ProjPoint | None,
    anchor2: ProjPoint | None,
    avoid1=(),
    avoid2=(),
    allowed_extra=frozenset(),
    allow_anchor_line: bool = False,
    family: str,
) -> ConstructionResult:
    """Attach the degenerate quadric through a line in plane i and one in j."""
    rng = random.Random(seed)
    anchor_line = None
    if allow_anchor_line and anchor1 is not None and anchor2 is not None:
        anchor_line = span([anchor1, anchor2], result.arrangement.ambient_dim)
    expect = {
        "anchors": (anchor1, anchor2),
        "anchor_line": anchor_line,
        "r3_delta": 4 - 2 * sum(a is not None for a in (anchor1, anchor2)),
        "s4_delta": sum(a is not None for a in (anchor1, anchor2)),
    }
    plane_i = result.arrangement.subspace(i)
    plane_j = result.arrangement.subspace(j)
    last_reason = ""
    for attempt in range(RETRY_CAP):
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
        try:
            new_arr, new_idx, pi, inc, report = _attach_once(
                result, i, j, line1, line2, rng, allowed_extra, expect
            )
        except _Retry as exc:
            last_reason = str(exc)
            continue
        rec = AttachmentRecord(
            chosen_planes=(i, j),
            anchor_points=(anchor1, anchor2),
            lines=(line1, line2),
            span_pi=pi,
            new_plane_indices=new_idx,
            seed=seed,
            retries=attempt,
        )
        return _finish(
            new_arr,
            result.attachments + (rec,),
            result.discrepancies,
            family,
            result.d + 2,
            result.g + 1,
            seed,
            inc,
            report,
        )
    raise GenericityError(
        f"no generic attachment found for planes ({i},{j}) after {RETRY_CAP} tries;"
        f" last failure: {last_reason}"
    )


def attach_handle(result: ConstructionResult, i: int, j: int, seed: int) -> ConstructionResult:
    """Attach a degenerate quadric joining two disjoint R_3 central planes.

    The two anchors become S_4 points and two new R_3 points appear on the
    common transversal of the chosen lines.
    """
    if not meet(result.arrangement.subspace(i), result.arrangement.subspace(j)).is_empty():
        raise RangeError(f"planes {i} and {j} are not disjoint")
    anchor1 = _r3_anchor(result, i)
    anchor2 = _r3_anchor(result, j)
    return _attach_pair(
        result, i, j, seed, anchor1=anchor1, anchor2=anchor2, family=result.family
    )


def cycle_from_chain(d: int, seed: int) -> ConstructionResult:
    """Close a chain of d-2 planes into a degree-d cycle with two new planes.

    For d = 5 the 3-space of the two chosen lines unavoidably meets the
    central plane of the chain in an extra line, which is tolerated (and
    recorded through the attachment's span); for d >= 6 it meets the rest of
    the chain in at most points.
    """
    if d < 5:
        raise RangeError("cycle requires d >= 5")
    base = chain_planes(d - 2)
    k = d - 2
    n = base.arrangement.ambient_dim
    avoid_first = (_coord_point(2, n),)
    avoid_last = (_coord_point(k - 1, n),)
    res = _attach_pair(
        base,
        0,
        k - 1,
        seed,
        anchor1=None,
        anchor2=None,
        avoid1=avoid_first,
        avoid2=avoid_last,
        allowed_extra=frozenset({1}) if d == 5 else frozenset(),
        family="cycle_from_chain",
    )
    res = ConstructionResult(
        arrangement=res.arrangement,
        incidence=res.incidence,
        report=res.report,
        graph=res.graph,
        attachments=res.attachments,
        discrepancies=res.discrepancies,
        family="cycle_from_chain",
        d=d,
        g=1,
        seed=seed,
    )
    if res.report.r_counts.get(3, 0) != d or res.num_edges != d:
        raise InternalCheckError("closed chain counts are off")
    return res


def build_X(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """The main family: chain (g=0), cycle (g=1), or a cycle of degree
    d-2(g-1) with g-1 quadric handles, giving d-2g+2 R_3 and 2g-2 S_4 points
    in P^(d-2g+1)."""
    if g < 0:
        raise RangeError("requires g >= 0")
    if g == 0:
        if d < 2:
            raise RangeError("requires d >= 2 when g = 0")
        return chain_planes(d)
    if g == 1:
        if d < 5:
            raise RangeError("requires d >= 5 when g = 1")
        return cycle_planes(d)
    if d < 2 * g + 4:
        raise RangeError("requires d >= 2g+4")
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
    result = ConstructionResult(
        arrangement=result.arrangement,
        incidence=result.incidence,
        report=result.report,
        graph=result.graph,
        attachments=result.attachments,
        discrepancies=result.discrepancies + (note,),
        family="X",
        d=d,
        g=g,
        seed=seed,
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
    through the chain points p_i and p_(d-2g+1-i)."""
    if g < 2:
        raise RangeError("requires g >= 2")
    if d <= 4 * g:
        raise RangeError("requires d > 4g")
    rng = random.Random(seed)
    k = d - 2 * g
    result = chain_planes(k)
    n = result.arrangement.ambient_dim
    for i in range(1, g + 1):
        if i == 1:
            result = _attach_pair(
                result,
                0,
                k - 1,
                rng.randrange(2**63),
                anchor1=None,
                anchor2=None,
                avoid1=(_coord_point(2, n),),
                avoid2=(_coord_point(k - 1, n),),
                family="Y",
            )
        else:
            result = _attach_pair(
                result,
                i - 1,
                k - i,
                rng.randrange(2**63),
                anchor1=_coord_point(i, n),
                anchor2=_coord_point(k - i + 1, n),
                allow_anchor_line=True,
                family="Y",
            )
    result = ConstructionResult(
        arrangement=result.arrangement,
        incidence=result.incidence,
        report=result.report,
        graph=result.graph,
        attachments=result.attachments,
        discrepancies=result.discrepancies,
        family="Y",
        d=d,
        g=g,
        seed=seed,
    )
    _check_family_profile(result, d, g)
    return result


def _embed_in_hyperplane(result: ConstructionResult) -> Arrangement:
    """Re-embed the arrangement in one more coordinate (last coordinate 0)."""
    n = result.arrangement.ambient_dim + 1
    subs = [
        Subspace(n, [list(row) + [0] for row in p.subspace.basis])
        for p in result.arrangement.planes
    ]
    return Arrangement(n, subs)


def _z_step(prev: ConstructionResult, seed: int) -> ConstructionResult:
    """Attach a degenerate cubic scroll (three planes in a general P^4)."""
    rng = random.Random(seed)
    d = prev.d + 3
    g = prev.g + 1
    arr = _embed_in_hyperplane(prev)
    n = arr.ambient_dim
    if prev.g == 1 and prev.d == 5:
        # the 5-cycle has no disjoint planes: take the first pair meeting in
        # a point only
        pair = None
        for a in range(len(arr)):
            for b in range(a + 1, len(arr)):
                if meet(arr.subspace(a), arr.subspace(b)).dim == 0:
                    pair = (a, b)
                    break
            if pair:
                break
    else:
        pair = first_disjoint_central_pair(prev)
    if pair is None:
        raise InternalCheckError("no admissible plane pair for the cubic attachment")
    i, j = pair
    anchor1 = _r3_anchor(prev, i)
    anchor2 = _r3_anchor(prev, j)
    anchor1 = ProjPoint(list(anchor1.coords) + [0])
    anchor2 = ProjPoint(list(anchor2.coords) + [0])
    plane_i, plane_j = arr.subspace(i), arr.subspace(j)
    old_rep = prev.report

    last_reason = ""
    for attempt in range(RETRY_CAP):
        line1 = _line_through(plane_i, anchor1, rng)
        line2 = _line_through(plane_j, anchor2, rng)
        pi3 = span_subspaces([line1, line2], n)
        if pi3.dim != 3:
            last_reason = "the two lines are not skew"
            continue
        # a general point off the old hyperplane fixes the ambient P^4
        q3 = _random_point_with_last_coord(n, rng)
        q2 = _sample_on_line(line2, anchor2, rng)
        q4 = _sample_on_line(line1, anchor1, rng)
        w1 = span_subspaces([line2, span([q3], n)], n)
        w2 = span([q2, q3, q4], n)
        w3 = span_subspaces([line1, span([q3], n)], n)
        if any(w.dim != 2 for w in (w1, w2, w3)):
            last_reason = "degenerate new plane"
            continue
        try:
            new_arr = Arrangement(n, [p.subspace for p in arr.planes] + [w1, w2, w3])
        except RangeError as exc:
            last_reason = str(exc)
            continue
        inc = compute_incidence(new_arr)
        report = zappatic_report(new_arr, inc)
        if not report.is_zappatic:
            last_reason = f"not Zappatic: {report.violations[:2]}"
            continue
        if (
            report.r_counts.get(3, 0) != old_rep.r_counts.get(3, 0) + 1
            or report.s_counts.get(4, 0) != old_rep.s_counts.get(4, 0) + 2
            or report.f_counts != old_rep.f_counts
        ):
            last_reason = "unexpected singular point counts"
            continue
        point_types = {
            inc.singular_points[k].point.coords: t
            for k, t in enumerate(report.types)
        }
        base_len = len(arr)
        checks = (
            (anchor1.coords, "S", i),
            (anchor2.coords, "S", j),
            (q2.coords, "R", base_len),      # chain V_j - W1 - W2
            (q3.coords, "R", base_len + 1),  # chain W1 - W2 - W3
            (q4.coords, "R", base_len + 2),  # chain V_i - W3 - W2
        )
        bad = False
        for coords, kind, central in checks:
            t = point_types.get(coords)
            if t is None or t.kind != kind or t.central != central:
                bad = True
                last_reason = "attachment points misclassified"
                break
        if bad:
            continue
        rec = AttachmentRecord(
            chosen_planes=(i, j),
            anchor_points=(anchor1, anchor2),
            lines=(line1, line2),
            span_pi=span_subspaces([pi3, span([q3], n)], n),
            new_plane_indices=(base_len, base_len + 1, base_len + 2),
            seed=seed,
            retries=attempt,
        )
        return _finish(
            new_arr,
            prev.attachments + (rec,),
            prev.discrepancies,
            "Z",
            d,
            g,
            seed,
            inc,
            report,
        )
    raise GenericityError(
        f"no generic cubic attachment for planes {pair} after {RETRY_CAP} tries;"
        f" last failure: {last_reason}"
    )


def _random_point_with_last_coord(n: int, rng) -> ProjPoint:
    vec = [rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT) for _ in range(n)]
    vec.append(rng.randint(1, SAMPLE_HEIGHT))
    return ProjPoint(vec)


def build_Z(d: int, g: int, seed: int = 0) -> ConstructionResult:
    """Cycle for g=1, then one degenerate cubic scroll (three planes in a
    general P^4) per extra genus, adding 3 planes and 4 double lines each."""
    if g < 1:
        raise RangeError("requires g >= 1")
    if d < 3 * g + 2:
        raise RangeError("requires d >= 3g+2")
    note = (
        f"edge count discrepancy: alternative tally d-2g+1 gives {d - 2 * g + 1},"
        f" inconsistent with g = e-v+1; derived value e = d+g-1 = {d + g - 1}"
        f" is used"
    )
    if g == 1:
        base = cycle_planes(d)
        return ConstructionResult(
            arrangement=base.arrangement,
            incidence=base.incidence,
            report=base.report,
            graph=base.graph,
            attachments=base.attachments,
            discrepancies=(note,),
            family="Z",
            d=d,
            g=1,
            seed=seed,
        )
    rng = random.Random(seed)
    seeds = [rng.randrange(2**63) for _ in range(g - 1)]
    result = build_Z(d - 3 * (g - 1), 1, seed)
    for s in seeds:
        result = _z_step(result, s)
    result = ConstructionResult(
        arrangement=result.arrangement,
        incidence=result.incidence,
        report=result.report,
        graph=result.graph,
        attachments=result.attachments,
        discrepancies=(note,),
        family="Z",
        d=d,
        g=g,
        seed=seed,
    )
    _check_family_profile(result, d, g)
    return result
