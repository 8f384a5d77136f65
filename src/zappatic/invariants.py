"""Closed-form invariants, dimension counts and bounds for scroll smoothings.

Degree-d, genus-g scrolls here always live in P^(d-2g+1) and their Hilbert
component has dimension (d-2g+2)^2 + 7(g-1).  For a planar Zappatic central
fibre with v planes and e double lines the smoothing invariants are

    g = e - v + 1,   p_g = h2 of the dual complex,   chi = v - e + sum f_n,
    K^2 = 9v - 10e + sum 2n f_n + r_3 + k,

where k is only bounded, not determined, by the R_m/S_m points with m >= 4;
it is carried as an interval everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from zappatic.complexes import DualGraph, homology
from zappatic.errors import InternalCheckError, RangeError
from zappatic.arrangement import ZappaticReport


@dataclass(frozen=True)
class InvariantReport:
    v: int
    e: int
    r_counts: dict[int, int]
    s_counts: dict[int, int]
    f_counts: dict[int, int]
    g: int
    p_omega: int
    chi: int
    k_interval: tuple[int, int]
    K2_interval: tuple[int, int]


@dataclass(frozen=True)
class SmoothingInvariants:
    g: int
    p_g: int
    chi: int
    K2_interval: tuple[int, int]


def k_bounds(r_counts, s_counts) -> tuple[int, int]:
    k_min = sum((m - 2) * (r_counts.get(m, 0) + s_counts.get(m, 0))
                for m in set(r_counts) | set(s_counts) if m >= 4)
    k_max = sum(
        (2 * m - 5) * r_counts.get(m, 0) + comb(m - 1, 2) * s_counts.get(m, 0)
        for m in set(r_counts) | set(s_counts)
        if m >= 4
    )
    return k_min, k_max


def invariants_of(report: ZappaticReport | None, graph: DualGraph) -> InvariantReport:
    """Invariants of a Zappatic central fibre and its smoothing.

    For abstract complexes (no arrangement behind them) pass report=None;
    the counts are then read off the complex itself.
    """
    v = graph.num_vertices
    e = graph.num_edges
    if report is not None:
        if not report.is_zappatic:
            raise RangeError("arrangement is not Zappatic")
        r_counts = dict(report.r_counts)
        s_counts = dict(report.s_counts)
        f_counts = dict(report.f_counts)
        if (
            f_counts != graph.face_counts()
            or r_counts != graph.open_face_counts()
            or s_counts != graph.angle_counts()
        ):
            raise InternalCheckError("report counts disagree with the dual complex")
    else:
        r_counts = graph.open_face_counts()
        s_counts = graph.angle_counts()
        f_counts = graph.face_counts()

    h = homology(graph)
    g = e - v + 1
    chi_formula = v - e + sum(f_counts.values())
    if chi_formula != h.euler:
        raise InternalCheckError("counting formula disagrees with CW Euler number")
    k_min, k_max = k_bounds(r_counts, s_counts)
    base = 9 * v - 10 * e + sum(2 * n * c for n, c in f_counts.items())
    base += r_counts.get(3, 0)
    return InvariantReport(
        v=v,
        e=e,
        r_counts=r_counts,
        s_counts=s_counts,
        f_counts=f_counts,
        g=g,
        p_omega=h.h2,
        chi=chi_formula,
        k_interval=(k_min, k_max),
        K2_interval=(base + k_min, base + k_max),
    )


def smoothing_of(inv: InvariantReport) -> SmoothingInvariants:
    """Invariants of the general fibre smoothing the central fibre."""
    return SmoothingInvariants(
        g=inv.g, p_g=inv.p_omega, chi=inv.chi, K2_interval=inv.K2_interval
    )


def _check_dg_range(d: int, g: int) -> None:
    if g < 0:
        raise RangeError("requires g >= 0")
    if g == 0 and d < 2:
        raise RangeError("requires d >= 2 when g = 0")
    if g == 1 and d < 5:
        raise RangeError("requires d >= 5 when g = 1")
    if g >= 2 and d < 2 * g + 4:
        raise RangeError("requires d >= 2g+4")


def hilbert_dim(d: int, g: int) -> int:
    """Dimension of the component of linearly normal scrolls: (r+1)^2 + 7(g-1)."""
    _check_dg_range(d, g)
    return (d - 2 * g + 2) ** 2 + 7 * (g - 1)


def chi_normal(d: int, g: int) -> int:
    """Euler characteristic route to the same number: d^2-4dg+4d+4g^2-g-3."""
    _check_dg_range(d, g)
    return d * d - 4 * d * g + 4 * d + 4 * g * g - g - 3


def param_breakdown(d: int, g: int):
    """Parameter count for the scroll component, summand by summand.

    Returns ([(label, signed count), ...], total); the total equals
    hilbert_dim(d, g) identically.
    """
    _check_dg_range(d, g)
    r = d - 2 * g + 1
    items = [
        ("curve moduli", 3 * g - 3),
        ("points on the product surface", 2 * d),
        ("projective transformations", (r + 1) ** 2 - 1),
        ("codimension-two subspace", -(2 * d - 4 * g)),
        ("pencil isomorphisms", -3),
    ]
    total = sum(c for _, c in items)
    if total != hilbert_dim(d, g):
        raise InternalCheckError("parameter breakdown disagrees with dimension")
    return items, total


def segre_bounds(d: int, g: int):
    """Bounds for h^0/h^1 of the hyperplane bundle of a genus-g ruled surface.

    h^0 lies in [d-2g+2, d-g+2] (upper bound attained exactly by cones),
    h^1 in [0, g]; Riemann-Roch pins h^0 - h^1 = d - 2g + 2 pointwise.
    """
    if g < 1:
        raise RangeError("requires g >= 1")
    if d < 2 * g + 1:
        raise RangeError("requires d >= 2g+1")
    return {
        "h0_min": d - 2 * g + 2,
        "h0_max": d - g + 2,
        "h1_min": 0,
        "h1_max": g,
        "chi": d - 2 * g + 2,
    }


def decomposable_h1(g: int, deg_L: int, i: int, d: int):
    """h^1 and h^0 of the hyperplane bundle of P(L + O(D)) with h^1(L) = i.

    The first summand is a special line bundle of degree deg_L with
    speciality index i (an input, as in the construction); the second is a
    general nonspecial divisor of degree d - deg_L.
    """
    if not 1 <= i <= g:
        raise RangeError("requires 1 <= i <= g")
    if deg_L > 2 * g - 2:
        raise RangeError("requires deg_L <= 2g-2")
    if d - deg_L < 2 * g + 1:
        raise RangeError("requires d - deg_L >= 2g+1")
    h0 = (deg_L - g + 1 + i) + (d - deg_L - g + 1)
    return {"h1_total": i, "h0_total": h0}


def brill_noether(g: int, r: int, d: int) -> int:
    """rho(g, r, d) = g - (r+1)(g - d + r)."""
    return g - (r + 1) * (g - d + r)


def ciro_bound(l: int, eps: int, d: int):
    """Lower bound for the projected-scroll component dimension.

    Genus g = 4l + eps with a special g^3 of degree 3+g-l moving in a
    rho = eps dimensional family; the bound sums curve moduli, the two
    bundle choices, the Grassmannian of projections and PGL(r+1).
    """
    if not 0 <= eps <= 3:
        raise RangeError("requires 0 <= eps <= 3")
    g = 4 * l + eps
    if g < 3:
        raise RangeError("requires g = 4l + eps >= 3")
    if eps <= 1:
        if d < 2 * g + 10:
            raise RangeError("requires d >= 2g+10 when eps <= 1")
    elif d < 2 * g + 11:
        raise RangeError("requires d >= 2g+11 when eps >= 2")
    r = d - 2 * g + 1
    lower = (3 * g - 3) + g + eps + (r + 1) * l + ((r + 1) ** 2 - 1)
    hd = hilbert_dim(d, g)
    return {"lower_bound": lower, "hilbert": hd, "exceeds": lower >= hd}


def quadric_count(d: int, g: int):
    """Quadrics through a degree-d genus-g curve in P^(d-g).

    through_curve is the full count C(r+2,2) - (2d-g+1); forcing a general
    codimension-3 subspace leaves d - 2g - 1 of them.
    """
    if g < 0:
        raise RangeError("requires g >= 0")
    if d < 2 * g + 2:
        raise RangeError("requires d >= 2g+2")
    r = d - g
    through = comb(r + 2, 2) - (2 * d - g + 1)
    with_codim3 = through - comb(r - 1, 2)
    if with_codim3 != d - 2 * g - 1:
        raise InternalCheckError("codimension-3 count disagrees with d-2g-1")
    return {"through_curve": through, "through_curve_and_codim3": with_codim3}
