"""Degeneration bookkeeping for ruled central fibres, and two exact checks.

Central fibres are lists of components, each stored as its type (a, b): the
scroll S(a, b) = F(b-a; 1, a), that is F_(b-a) embedded by |C + aF| (degree
a + b), or for a = 0 the plane P(b).  Moves (point or ruling blow-ups,
twists of the hyperplane bundle, type-I transformations) are recorded at the
resolution of their effect on these labels; the running total degree is
conserved and re-checked at every state.

chain_feasible decides whether a scroll of type (a, b) can degenerate to a
chain of planes with only triple chain points, from the admissible
placements of the minimal section: positions j_1 < ... < j_a in {1..a+b}
with j_1 <= 3, j_k <= j_(k-1) + 2 and j_a >= a+b-2.  The reachable j_k fill
[j_1+k-1, j_1+2(k-1)], so a placement exists iff b - a <= 3, and the
witness is written down directly.

section_duality_check verifies, on exact samples, that intersecting the
rulings of a smooth quadric with a fixed plane is the linear projection of
the ruling conic in the Klein quadric from the dual plane of that plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from zappatic import linalg
from zappatic.errors import GenericityError, InternalCheckError, RangeError
from zappatic.projective import (
    ProjPoint,
    QuadricForm,
    Subspace,
    dual_plane_in_klein,
    meet,
    plucker,
    quadric_rank,
    span,
)


@dataclass(frozen=True)
class FibreComponent:
    """A scroll S(a, b) = F(b-a; 1, a) of degree a + b, or with a = 0 the
    plane P(b)."""

    a: int
    b: int

    @staticmethod
    def plane(degree: int = 1) -> "FibreComponent":
        if degree < 0:
            raise RangeError("negative plane degree")
        return FibreComponent(0, degree)

    @staticmethod
    def scroll(a: int, b: int) -> "FibreComponent":
        """Scroll of type (a, b), b >= a >= 1, as |C + aF| on F_(b-a)."""
        if not 1 <= a <= b:
            raise RangeError("scroll type needs 1 <= a <= b")
        return FibreComponent(a, b)

    @property
    def total_degree(self) -> int:
        return self.a + self.b

    def label(self) -> str:
        if not self.a:
            return f"P({self.b})"
        return f"F({self.b - self.a};1,{self.a})"


@dataclass(frozen=True)
class DegenLedger:
    states: tuple[tuple[FibreComponent, ...], ...]
    moves: tuple[tuple[str, ...], ...]  # move group between consecutive states
    total_degree: int

    def __post_init__(self):
        for state in self.states:
            if sum(c.total_degree for c in state) != self.total_degree:
                raise InternalCheckError("degree not conserved along the ledger")
        if len(self.moves) != len(self.states) - 1:
            raise InternalCheckError("move groups must interleave states")

    def final_state(self) -> tuple[FibreComponent, ...]:
        return self.states[-1]

    def serialize(self) -> str:
        lines = [f"# total degree: {self.total_degree}"]
        lines.append(" ".join(c.label() for c in self.states[0]))
        for group, state in zip(self.moves, self.states[1:]):
            for mv in group:
                lines.append(f"# move: {mv}")
            lines.append(" ".join(c.label() for c in state))
        return "\n".join(lines) + "\n"


def degenerate_balanced(d: int) -> DegenLedger:
    """Degenerate the balanced degree-d scroll to a chain of d planes.

    Starts from S_(a, a+1) for odd d = 2a+1 and from S_(a, a) for even
    d = 2a; alternates ruling blow-ups (multiplicity-a twist) and point
    blow-ups (twist, type-I, twist with multiplicity a-1), pushing one plane
    into the chain per move group.  The scroll stays in front of the chain.
    """
    if d < 2:
        raise RangeError("requires d >= 2")
    x, y = d // 2, (d + 1) // 2
    unit = FibreComponent.plane(1)
    states = [(FibreComponent.scroll(x, y),)]
    groups = []
    while x:
        if x < y:
            # F_1-type stage: ruling blow-up plus one twist of multiplicity x
            group = ("blowup_ruling(0)", f"twist(1,-{x})")
        else:
            # F_0-type stage: point blow-up, twist, type-I, then the
            # multiplicity x-1 twist
            group = ("blowup_point(0)", "twist(1,-1)", "type_I(vertical)")
            if x > 1:
                group += (f"twist(1,-{x - 1})",)
        # either way S_(x, y) splits off a plane and becomes S_(x, y-1),
        # reordered; the quadric S_(1,1) leaves type (0, 1), the plane P(1)
        x, y = min(x, y - 1), max(x, y - 1)
        states.append((FibreComponent(x, y), *states[-1][1:], unit))
        groups.append(group)
    ledger = DegenLedger(tuple(states), tuple(groups), d)
    if ledger.final_state() != (unit,) * d:
        raise InternalCheckError("balanced degeneration did not end in unit planes")
    return ledger


def chain_feasible(a: int, b: int):
    """Can S_(a,b) degenerate to a plane chain with only triple chain points?

    Places the degenerated minimal section at j_1 < ... < j_a in {1..a+b}
    with j_1 <= 3, each j_k at most j_(k-1) + 2, and j_a >= a+b-2.  The
    witness takes j_1 = min(3, a+b), then steps of 1, and ends with the
    max(0, b-4) steps of 2 that reach a+b-2: the first placement in the order
    (j_1 descending, steps of 1 before 2).  It needs at most a-1 steps, so
    the type is infeasible iff b - a > 3.  Returns {"feasible", "witness"}
    or {"feasible", "obstruction"}.

    These rules constrain only the degree-a side: they bound the triangles
    at each vertex of the degree-a directrix, not of the degree-b one.  The
    witness can put a degree-b vertex in more than three triangles; for
    (3, 3) it is (3, 4, 5), which puts one in five.
    """
    if not 1 <= a <= b:
        raise RangeError("requires 1 <= a <= b")
    twos = max(0, b - 4)
    if twos > a - 1:
        return {
            "feasible": False,
            "obstruction": "j_a range empty (a+b-2 > 2a+1)",
        }
    steps = [min(3, a + b)] + [1] * (a - 1 - twos) + [2] * twos
    return {"feasible": True, "witness": tuple(accumulate(steps))}


# -- exact ruling/duality check --------------------------------------------


def _tangent_plane(q: QuadricForm, p: ProjPoint) -> Subspace:
    grad = [sum(a * x for a, x in zip(row, p.coords)) for row in q.matrix]
    return Subspace(3, linalg.nullspace([grad], ncols=4))


def _lines_through(q: QuadricForm, p: ProjPoint) -> tuple[Subspace, Subspace]:
    """The two lines of a rank-4 quadric surface through one of its points.

    Works inside the tangent plane: the restricted form is a rank-2 conic
    singular at p; its two linear factors are extracted with an exact
    integer square root.  Raises GenericityError when the factorization is
    irrational (the quadric then has no rational ruling through p).
    """
    if q.evaluate(p) != 0:
        raise RangeError("point does not lie on the quadric")
    t = _tangent_plane(q, p)
    if t.dim != 2:
        raise RangeError("quadric is singular at the point")
    # p in t has weight p[c]/row[c] on the canonical row of pivot c; the two
    # rows left by dropping the last one with weight complete p to a basis
    pivots = [next(c for c, x in enumerate(row) if x) for row in t.basis]
    last = max(k for k, c in enumerate(pivots) if p.coords[c])
    f0, f1 = (row for k, row in enumerate(t.basis) if k != last)
    aa = q.bilinear(f0, f0)
    bb = 2 * q.bilinear(f0, f1)
    cc = q.bilinear(f1, f1)
    # the section by the tangent plane is the binary form
    # aa x^2 + bb xy + cc y^2 in the directions f0, f1 modulo p;
    # its two roots are the two rulings
    if aa == 0:
        if bb == 0:
            raise InternalCheckError("tangent section is a double line")
        dirs = [(1, 0), (cc, -bb)]
    else:
        disc = bb * bb - 4 * aa * cc
        if disc <= 0:
            if disc == 0:
                raise InternalCheckError("tangent section is a double line")
            raise GenericityError("quadric has no real ruling through the point")
        s = isqrt(disc)
        if s * s != disc:
            raise GenericityError("quadric has no rational ruling through the point")
        dirs = [(bb - s, -2 * aa), (bb + s, -2 * aa)]
    out = []
    for dx, dy in dirs:
        w = [dx * u + dy * v for u, v in zip(f0, f1)]
        if not any(w):
            raise GenericityError("degenerate ruling direction")
        out.append(span([p, ProjPoint(w)], 3))
    if out[0].dim != 1 or out[1].dim != 1:
        raise InternalCheckError("ruling extraction failed")
    return out[0], out[1]


def section_duality_check(
    quadric: QuadricForm,
    pi: Subspace,
    n_samples: int = 8,
    *,
    base_point: ProjPoint,
):
    """Sample-level check that cutting rulings with a plane is a projection.

    Samples rulings L_t of one family of the smooth quadric, intersects each
    with the plane, and verifies that the resulting points match the images
    of the Pluecker points of L_t under linear projection from the dual
    plane, through one fixed projectivity (fitted on four samples, verified
    exactly on the rest).  The sampled rulings all meet one ruling through
    base_point, a rational point of the quadric; a point off the quadric
    raises RangeError.
    """
    if quadric.ambient_dim != 3:
        raise RangeError("quadric must live on P^3")
    if quadric_rank(quadric) != 4:
        raise RangeError("requires a smooth quadric (rank 4)")
    if pi.ambient_dim != 3 or pi.dim != 2:
        raise RangeError("requires a plane in P^3")
    if n_samples < 6:
        raise RangeError("requires n_samples >= 6")
    if quadric_rank(quadric.restrict(pi)) != 3:
        raise RangeError("plane is tangent to the quadric or contains a ruling")

    seed_line, _other = _lines_through(quadric, base_point)

    # parametrize the opposite ruling family through the points of seed_line
    u, v = seed_line.basis
    samples = []
    params = [(i + 1) // 2 * (-1) ** (i + 1) for i in range(n_samples)]
    dual = dual_plane_in_klein(pi)
    proj_forms = linalg.nullspace(dual.basis, ncols=6)  # three forms cutting it
    for t in params:
        pt = ProjPoint([a + t * b for a, b in zip(u, v)])
        l1, l2 = _lines_through(quadric, pt)
        ruling = l2 if l1 == seed_line else l1
        cut = meet(ruling, pi)
        if cut.dim != 0:
            raise RangeError("plane contains a sampled ruling")
        x = pi.coords_of(cut.point())
        x = linalg.clear_denominators(list(x))
        pl = plucker(ruling)
        w = [sum(f[k] * pl.coords[k] for k in range(6)) for f in proj_forms]
        if not any(w):
            raise InternalCheckError("ruling projected from inside the dual plane")
        samples.append((x, linalg.primitive(w)))

    fitted = _fit_projectivity([s for s in samples[:4]])
    if fitted is None:
        return {"passed": False, "reason": "no unique projectivity on the fit set"}
    for x, w in samples[4:]:
        img = [sum(fitted[r][c] * x[c] for c in range(3)) for r in range(3)]
        if linalg.rank([img, w]) == 2:
            return {"passed": False, "reason": "sample off the fitted projection"}
    return {"passed": True, "samples": len(samples)}


def _fit_projectivity(pairs):
    """3x3 matrix T with T x_i parallel to w_i for the four given pairs."""
    cols = 9 + len(pairs)
    rows = []
    for k, (x, w) in enumerate(pairs):
        for r in range(3):
            row = [0] * cols
            for c in range(3):
                row[3 * r + c] = x[c]
            row[9 + k] = -w[r]
            rows.append(row)
    kern = linalg.nullspace(rows, ncols=cols)
    if len(kern) != 1:
        return None
    flat = kern[0][:9]
    return [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
