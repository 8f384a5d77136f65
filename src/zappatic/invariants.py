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

from zappatic.complexes import DualGraph, HomologyReport, homology
from zappatic.errors import RangeError


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
    homology: HomologyReport  # of the dual complex; p_omega is its h2


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


def invariants_of(graph: DualGraph) -> InvariantReport:
    """Invariants of a Zappatic central fibre and its smoothing, read off
    its dual complex alone.

    The complex of an arrangement has one 2-cell per E_n point, one open
    face per R_n point and one angle per S_n point (``build_dual_graph``),
    so the counts are those of the cells; an abstract complex, with no
    arrangement behind it, is read the same way.

    g = e - v + 1 is the arithmetic genus of the hyperplane section, a union
    of v lines meeting in e points, so a disconnected fibre can have g < 0:
    two disjoint planes of P^5 cut two skew lines, with p_a = 1 - 2 = -1,
    and have chi(O) = 2 and K^2 = 9 + 9 = 18.
    """
    v = graph.num_vertices
    e = graph.num_edges
    r_counts = graph.open_face_counts()
    s_counts = graph.angle_counts()
    f_counts = graph.face_counts()
    h = homology(graph)
    g = e - v + 1
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
        chi=h.euler,
        k_interval=(k_min, k_max),
        K2_interval=(base + k_min, base + k_max),
        homology=h,
    )


def smoothing_of(inv: InvariantReport) -> SmoothingInvariants:
    """Invariants of the general fibre smoothing the central fibre."""
    return SmoothingInvariants(
        g=inv.g, p_g=inv.p_omega, chi=inv.chi, K2_interval=inv.K2_interval
    )


def check_dg_range(d: int, g: int) -> None:
    """Reject (d, g) outside the range where the scroll families exist."""
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
    check_dg_range(d, g)
    return (d - 2 * g + 2) ** 2 + 7 * (g - 1)


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
    codimension-3 subspace takes C(r-1,2) more and leaves 3r - 2d + g - 1,
    which is d - 2g - 1 since r = d - g.
    """
    if g < 0:
        raise RangeError("requires g >= 0")
    if d < 2 * g + 2:
        raise RangeError("requires d >= 2g+2")
    r = d - g
    through = comb(r + 2, 2) - (2 * d - g + 1)
    with_codim3 = through - comb(r - 1, 2)
    return {"through_curve": through, "through_curve_and_codim3": with_codim3}
