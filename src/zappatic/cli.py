"""Command-line interface.

One binary with subcommands; human-readable text goes to stdout, with
machine-readable JSON fenced between sentinel lines where a summary is
produced.  Exit codes: 0 success, 2 input or range error, 3 genericity
exhaustion, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from zappatic import linalg, serialize
from zappatic.arrangement import compute_incidence, zappatic_report
from zappatic.complexes import build_dual_graph, build_torus_complex, to_dot
from zappatic.constructions import (
    build_X,
    build_Y,
    build_Z,
    chain_planes,
    cycle_planes,
)
from zappatic.errors import GenericityError, InternalCheckError, RangeError
from zappatic.invariants import (
    hilbert_dim,
    invariants_of,
    quadric_count,
    smoothing_of,
)
from zappatic.scrolls import chain_feasible, degenerate_balanced

JSON_BEGIN = "--- JSON ---"
JSON_END = "--- END JSON ---"

SCROLL_FAMILIES = ("chain", "cycle", "X", "Y", "Z")


def _print_json_block(payload: dict) -> None:
    print(JSON_BEGIN)
    print(json.dumps(payload, sort_keys=True))
    print(JSON_END)


def cmd_construct(args) -> int:
    seed = args.seed
    family = args.family
    d, g = args.d, args.g
    if family in ("chain", "cycle"):
        fixed = 0 if family == "chain" else 1
        if g is not None and g != fixed:
            raise RangeError(f"family {family} has fixed g = {fixed}; omit --g")
        res = chain_planes(d) if family == "chain" else cycle_planes(d)
    else:
        if g is None:
            raise RangeError(f"family {family} requires --g")
        builder = {"X": build_X, "Y": build_Y, "Z": build_Z}[family]
        res = builder(d, g, seed)

    metadata = {"family": res.family, "d": res.d, "g": res.g, "seed": seed}
    serialize.write_arrangement(args.out, res.arrangement, metadata)

    inv = invariants_of(res.graph)
    counts = " ".join(
        [f"R{n}={c}" for n, c in sorted(inv.r_counts.items())]
        + [f"S{n}={c}" for n, c in sorted(inv.s_counts.items())]
        + [f"E{n}={c}" for n, c in sorted(inv.f_counts.items())]
    )
    print(f"family {res.family} d={res.d} g={res.g} seed={seed}")
    print(f"planes={inv.v} edges={inv.e}")
    print(
        f"{counts} g={inv.g} chi={inv.chi} p_omega={inv.p_omega} "
        f"K2=[{inv.K2_interval[0]},{inv.K2_interval[1]}]".strip()
    )
    for note in res.discrepancies:
        print(f"discrepancy: {note}")
    payload = {
        **metadata,
        "planes": inv.v,
        "edges": inv.e,
        "r_counts": {str(k): v for k, v in inv.r_counts.items()},
        "s_counts": {str(k): v for k, v in inv.s_counts.items()},
        "f_counts": {str(k): v for k, v in inv.f_counts.items()},
        "sectional_genus": inv.g,
        "chi": inv.chi,
        "p_omega": inv.p_omega,
        "K2_interval": list(inv.K2_interval),
        "discrepancies": list(res.discrepancies),
        "out": str(args.out),
    }
    _print_json_block(payload)
    return 0


def _read_classified(path):
    """An arrangement file's arrangement, metadata, incidence and report."""
    arr, meta = serialize.read_arrangement(path)
    inc = compute_incidence(arr)
    return arr, meta, inc, zappatic_report(arr, inc)


def cmd_classify(args) -> int:
    _arr, _meta, inc, report = _read_classified(args.path)
    if not inc.singular_points:
        print("no singular points; Zappatic: " + ("yes" if report.is_zappatic else "no"))
        return 0
    for sp, t in zip(inc.singular_points, report.types):
        coords = ":".join(str(x) for x in sp.point.coords)
        planes = ",".join(str(i) for i in sorted(sp.incident_planes))
        print(f"point ({coords}) planes [{planes}] -> {t.tag}")
    print("Zappatic: " + ("yes" if report.is_zappatic else "no"))
    for v in report.violations:
        print(f"violation: {v}")
    return 0


def cmd_invariants(args) -> int:
    if args.abstract:
        if args.path is not None or args.smooth:
            raise RangeError("--abstract takes no arrangement file and no --smooth")
        kind = args.abstract[0]
        if kind != "torus":
            raise RangeError(f"unknown abstract complex {kind!r}")
        if len(args.abstract) != 3:
            raise RangeError("--abstract torus needs two grid sizes")
        try:
            n, m = int(args.abstract[1]), int(args.abstract[2])
        except ValueError:
            raise RangeError("--abstract torus grid sizes must be integers")
        inv = invariants_of(build_torus_complex(n, m))
        h = inv.homology
        print(
            f"v={inv.v} e={inv.e} f={sum(inv.f_counts.values())} chi={inv.chi} "
            f"h2={h.h2} homology=({h.h0},{h.h1},{h.h2})"
        )
        print(
            f"g={inv.g} p_omega={inv.p_omega} "
            f"K2=[{inv.K2_interval[0]},{inv.K2_interval[1]}]"
        )
        return 0
    if args.path is None:
        raise RangeError("need an arrangement file or --abstract")
    arr, meta, inc, report = _read_classified(args.path)
    inv = invariants_of(build_dual_graph(arr, inc, report))
    sm = smoothing_of(inv) if args.smooth else None
    family = meta.get("family")
    if sm is not None and family in SCROLL_FAMILIES:
        lo, hi = sm.K2_interval
        if not lo <= 8 * (1 - sm.g) <= hi:
            raise RangeError(
                f"metadata family {family!r} does not fit the planes: "
                f"a scroll smoothing has K2 = 8(1-g) = {8 * (1 - sm.g)}, "
                f"outside [{lo},{hi}]"
            )
    print(
        f"v={inv.v} e={inv.e} g={inv.g} chi={inv.chi} p_omega={inv.p_omega} "
        f"K2=[{inv.K2_interval[0]},{inv.K2_interval[1]}] "
        f"k=[{inv.k_interval[0]},{inv.k_interval[1]}]"
    )
    if sm is not None:
        print(
            f"smooth: g={sm.g} p_g={sm.p_g} chi={sm.chi} "
            f"K2=[{sm.K2_interval[0]},{sm.K2_interval[1]}]"
        )
    return 0


def cmd_graph(args) -> int:
    arr, _meta, inc, report = _read_classified(args.path)
    dot = to_dot(build_dual_graph(arr, inc, report))
    serialize.write_text(args.dot, dot)
    print(f"wrote {args.dot}")
    return 0


def cmd_hilbert(args) -> int:
    print(hilbert_dim(args.d, args.g))
    return 0


def cmd_degenerate(args) -> int:
    ledger = degenerate_balanced(args.d)
    sys.stdout.write(ledger.serialize())
    return 0


def cmd_feasible(args) -> int:
    out = chain_feasible(args.a, args.b)
    if out["feasible"]:
        w = ", ".join(str(x) for x in out["witness"])
        print(f"feasible: j = ({w})")
    else:
        print(f"infeasible: {out['obstruction']}")
    return 0


def cmd_quadrics(args) -> int:
    counts = quadric_count(args.d, args.g)
    if args.oracle and args.g != 0:
        raise RangeError("the sampling oracle requires g = 0")
    print(
        f"through_curve={counts['through_curve']} "
        f"with_codim3={counts['through_curve_and_codim3']}"
    )
    if args.oracle:
        formula = counts["through_curve"]
        formula3 = counts["through_curve_and_codim3"]
        oracle, oracle3 = _run_quadric_oracle(args.d)
        print(f"formula {formula} = oracle {oracle}")
        print(f"with codim-3 subspace: formula {formula3} = oracle {oracle3}")
        if (formula, formula3) != (oracle, oracle3):
            raise InternalCheckError("quadric count oracle disagrees with formula")
    return 0


def _ranks_on_the_kernel(rows, extra) -> tuple[int, int]:
    """(rank of rows, rank of rows stacked on extra), for rows = D E with D
    its distinct columns in first-occurrence order and E the 0/1 spread of
    each to its copies.

    The second rank is rank D plus the rank of extra on ker E, whose basis is
    e_k - e_j for each column k that copies an earlier column j.  That is the
    rank of the stack only when ker rows = ker E, that is when D has
    independent columns; otherwise this raises InternalCheckError.
    """
    n = len(rows)
    firsts = {}  # distinct column of rows -> extra's column under its first copy
    lifted = []
    for col in zip(*rows, *extra):
        key, below = col[:n], col[n:]
        if key in firsts:
            lifted.append([a - b for a, b in zip(below, firsts[key])])
        else:
            firsts[key] = below
    rank = _certified_rank(list(zip(*firsts)))
    if rank != len(firsts):
        raise InternalCheckError("the distinct columns of the conditions are dependent")
    return rank, rank + _certified_rank(list(zip(*lifted)))


def _certified_rank(m) -> int:
    """Rank over the rationals of the list of rows m: the rank mod p when it
    is full, min(rows, columns), and the exact kernel's rank otherwise."""
    full = min(len(m), len(m[0])) if m else 0
    return full if linalg.rank_mod_p(m) == full else linalg.rank(m)


def _run_quadric_oracle(d: int) -> tuple[int, int]:
    """The oracle's two counts: independent quadrics through 2d+2 points of
    the rational normal curve in P^d, and those that also contain a seeded
    random codimension-3 subspace.  Each count is the number of quadric
    monomials minus the rank of the conditions; no kernel basis is built.

    Monomials of equal weight take equal values at every sample, so the
    curve's conditions are R = D E, with D the 2d + 1 distinct columns, one
    per weight, and E the 0/1 spread of each weight to its monomials.  D is
    a Vandermonde matrix at 2d + 2 distinct nodes, so its columns are
    independent and ker R = ker E, spanned by e_mu - e_first for each
    monomial mu after the first of its weight.  Hence rank [R; S] = rank D
    + rank(S K), where K is that basis and S the subspace's conditions, and
    the oracle ranks D and S K rather than the stack.  If D's columns were
    dependent, ker R would be larger than ker E; _ranks_on_the_kernel
    checks rank D against the number of weights and raises
    InternalCheckError otherwise.

    The subspace is the row span of [I | A], with the 3(d - 2) entries of A
    drawn in [-9, 9].  The identity block makes its d - 2 rows independent,
    so it has codimension 3 with no redraw, and its rows are already its
    canonical basis; a random point of the Grassmannian's big cell is as
    general as a dense draw, with small entries.
    """
    import random

    from zappatic.projective import ProjPoint, Subspace, quadric_conditions

    samples = [
        ProjPoint([t**k for k in range(d + 1)]) for t in range(-(d + 1), d + 1)
    ]
    monomials, curve = quadric_conditions(samples, [], d)
    rng = random.Random(0)
    sigma = Subspace(d, [
        [int(i == j) for j in range(d - 2)] + [rng.randint(-9, 9) for _ in range(3)]
        for i in range(d - 2)
    ])
    _, rows = quadric_conditions([], [sigma], d)
    rank, rank3 = _ranks_on_the_kernel(curve, rows)
    return len(monomials) - rank, len(monomials) - rank3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged and
    returns a fresh Namespace on every call."""
    p = argparse.ArgumentParser(
        prog="zappatic",
        description="exact constructions and invariants of planar Zappatic surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a plane configuration family")
    c.add_argument("--family", required=True, choices=SCROLL_FAMILIES)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--g", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_construct)

    cl = sub.add_parser("classify", help="classify the singular points of a file")
    cl.add_argument("path")
    cl.set_defaults(func=cmd_classify)

    iv = sub.add_parser("invariants", help="invariants of a configuration")
    iv.add_argument("path", nargs="?", default=None)
    iv.add_argument("--smooth", action="store_true")
    iv.add_argument("--abstract", nargs="+", default=None, metavar="SPEC")
    iv.set_defaults(func=cmd_invariants)

    gr = sub.add_parser("graph", help="export the dual graph as DOT")
    gr.add_argument("path")
    gr.add_argument("--dot", required=True)
    gr.set_defaults(func=cmd_graph)

    hb = sub.add_parser("hilbert", help="dimension of the scroll component")
    hb.add_argument("--d", type=int, required=True)
    hb.add_argument("--g", type=int, required=True)
    hb.set_defaults(func=cmd_hilbert)

    dg = sub.add_parser("degenerate", help="balanced scroll to plane chain ledger")
    dg.add_argument("--d", type=int, required=True)
    dg.set_defaults(func=cmd_degenerate)

    fs = sub.add_parser("feasible", help="chain degeneration feasibility for S(a,b)")
    fs.add_argument("--a", type=int, required=True)
    fs.add_argument("--b", type=int, required=True)
    fs.set_defaults(func=cmd_feasible)

    qd = sub.add_parser("quadrics", help="quadric system counts, optional oracle")
    qd.add_argument("--d", type=int, required=True)
    qd.add_argument("--g", type=int, required=True)
    qd.add_argument("--oracle", action="store_true")
    qd.set_defaults(func=cmd_quadrics)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GenericityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
