"""Exact-arithmetic toolkit for planar Zappatic surfaces.

Constructs plane configurations in projective space over the rationals,
classifies their singular points (R_n / S_n / E_n), builds the dual
CW-complex and its homology, evaluates the invariant and dimension formulas
for the smoothed surfaces, and replays scroll-to-planes degenerations as
exact bookkeeping ledgers.  Everything is integer/rational arithmetic; there
is no epsilon anywhere.
"""

__version__ = "0.1.0"

from zappatic.arrangement import Arrangement, compute_incidence, zappatic_report
from zappatic.complexes import build_dual_graph, build_torus_complex, homology
from zappatic.constructions import (
    attach_handle,
    build_X,
    build_Y,
    build_Z,
    chain_planes,
    cycle_from_chain,
    cycle_planes,
)
from zappatic.invariants import hilbert_dim, invariants_of, smoothing_of
from zappatic.linalg import backend_name
from zappatic.projective import (
    PluckerPoint,
    ProjPoint,
    QuadricForm,
    Subspace,
    dual_plane_in_klein,
    meet,
    plucker,
    quadric_rank,
    quadrics_through,
    span,
)
from zappatic.scrolls import chain_feasible, degenerate_balanced, section_duality_check

__all__ = [
    "Arrangement",
    "PluckerPoint",
    "ProjPoint",
    "QuadricForm",
    "Subspace",
    "attach_handle",
    "backend_name",
    "build_X",
    "build_Y",
    "build_Z",
    "build_dual_graph",
    "build_torus_complex",
    "chain_feasible",
    "chain_planes",
    "compute_incidence",
    "cycle_from_chain",
    "cycle_planes",
    "degenerate_balanced",
    "dual_plane_in_klein",
    "hilbert_dim",
    "homology",
    "invariants_of",
    "meet",
    "plucker",
    "quadric_rank",
    "quadrics_through",
    "section_duality_check",
    "smoothing_of",
    "span",
    "zappatic_report",
    "__version__",
]
