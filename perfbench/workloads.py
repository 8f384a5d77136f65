"""Workload definitions: the ops of one round, their inputs and their checks.

A round is a fixed list of ops.  Every op is either a ``zappatic`` CLI call
(``argv`` passed to ``zappatic.cli.main`` in process) or a direct call of a
public function that has no CLI.  The benchmark seed fixes every input: the
construction seeds, the seeds of the arrangement files the read path is run
on, the scroll types, the random quadrics and planes, and the order of the
ops in the round.  The shapes of the ops (family, d, g, sizes) are fixed per
workload, so two seeds give rounds of comparable cost.

Every op has a check against a closed form from the paper; an op whose check
fails counts as failed.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from math import comb
from typing import Callable

JSON_BEGIN = "--- JSON ---"
JSON_END = "--- END JSON ---"

# construct_grid: the shape of the acceptance GRID (X, g = 2..4, d from 2g+4),
# widened to the Y and Z families, d <= 16.
GRID_SHAPES = (
    ("X", 8, 2), ("X", 11, 2), ("X", 14, 2),
    ("X", 10, 3), ("X", 13, 3), ("X", 16, 3),
    ("X", 12, 4), ("X", 14, 4), ("X", 16, 4),
    ("Y", 9, 2), ("Y", 12, 2), ("Y", 13, 3), ("Y", 16, 3),
    ("Z", 8, 2), ("Z", 11, 2), ("Z", 11, 3), ("Z", 14, 3),
    ("Z", 14, 4), ("Z", 16, 4),
)

# construct_large: a handful of builds at d 18-23 that take seconds each, in
# ambient P^14-P^22 (P^(d-2g+1)).  Their costs are close (about 2-4 s each),
# so the median latency rests on all of them rather than on the one or two
# samples of a single shape; the two cycles (X at g = 1) cost the same for
# every seed and anchor the middle of the range.
LARGE_SHAPES = (
    ("X", 23, 1), ("X", 22, 1), ("X", 20, 2), ("X", 18, 2),
    ("Y", 18, 2), ("Z", 18, 2), ("Z", 19, 2), ("Z", 19, 3),
)

# analyze: the arrangement files the read path runs on, built during set-up.
ANALYZE_FILES = (
    ("X", 10, 2), ("X", 18, 4),
    ("Y", 10, 2), ("Y", 13, 3),
    ("Z", 11, 3), ("Z", 14, 4),
)
TORUS_SIZES = ((3, 5), (6, 7), (9, 10))
DEGENERATE_DS = ((8, 20), (21, 40), (41, 60))
FEASIBLE_AS = (9, 13, 17)  # one feasible and one infeasible b for each a
QUADRIC_DS = (7, 10, 12)
DUALITY_SAMPLES = 4


@dataclass
class Op:
    """One op of a round.

    ``run`` takes the loaded ``zappatic`` package and returns the CLI exit
    code (for CLI ops) or the function's return value (for direct calls).
    ``outputs`` are the files the op writes; they are part of its digest.
    ``check`` gets (result, stdout) and returns an error message or None.
    """

    label: str
    run: Callable
    check: Callable
    outputs: tuple[str, ...] = ()
    argv: tuple[str, ...] | None = None


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    make: Callable  # (seed, work_dir, pkg) -> list[Op]
    warmup: Callable  # (work_dir) -> list[Op], run once before timing


def _cli_op(label, argv, check, outputs=()):
    argv = tuple(argv)

    def run(pkg):
        return pkg.cli.main(list(argv))

    def checked(result, stdout):
        if result != 0:
            return f"exit code {result}"
        return check(stdout)

    return Op(label, run, checked, tuple(outputs), argv)


def _json_block(stdout: str) -> dict:
    body = stdout.split(JSON_BEGIN)[1].split(JSON_END)[0]
    return json.loads(body)


# -- checks against the paper's closed forms ---------------------------------


def _k2_ok(lo, hi, g):
    return 8 * (1 - g) <= lo <= hi <= 6 * (1 - g)


def construct_check(family, d, g, seed, path):
    """R3 = d-2g+2, S4 = 2g-2, e = d+g-1, K2 in [8(1-g), 6(1-g)], and the
    written file holds d planes in P^(d-2g+1).  X at g = 1 is the cycle."""

    def check(stdout):
        try:
            out = _json_block(stdout)
        except (IndexError, ValueError) as exc:
            return f"no JSON summary: {exc}"
        want = {
            "family": "cycle" if (family, g) == ("X", 1) else family,
            "d": d, "g": g, "seed": seed, "planes": d,
            "edges": d + g - 1, "r_counts": {"3": d - 2 * g + 2},
            "s_counts": {"4": 2 * g - 2} if g > 1 else {}, "f_counts": {}, "sectional_genus": g,
            "chi": 1 - g, "p_omega": 0, "out": path,
        }
        for key, value in want.items():
            if out.get(key) != value:
                return f"{key} = {out.get(key)!r}, expected {value!r}"
        lo, hi = out["K2_interval"]
        if not _k2_ok(lo, hi, g):
            return f"K2 interval [{lo},{hi}] outside [8(1-g), 6(1-g)]"
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"output file unreadable: {exc}"
        if data.get("ambient_dim") != d - 2 * g + 1 or len(data.get("planes", ())) != d:
            return "output file has the wrong ambient dimension or plane count"
        return None

    return check


def classify_check(d, g):
    def check(stdout):
        lines = stdout.splitlines()
        tags = [ln.rsplit("-> ", 1)[1] for ln in lines if ln.startswith("point (")]
        if lines[-1:] != ["Zappatic: yes"]:
            return "not reported Zappatic"
        want = {"R3": d - 2 * g + 2, "S4": 2 * g - 2}
        got = {t: tags.count(t) for t in set(tags)}
        if got != want:
            return f"point types {got}, expected {want}"
        return None

    return check


_INV_RE = re.compile(
    r"v=(-?\d+) e=(-?\d+) g=(-?\d+) chi=(-?\d+) p_omega=(-?\d+) "
    r"K2=\[(-?\d+),(-?\d+)\] k=\[(-?\d+),(-?\d+)\]"
)
_SMOOTH_RE = re.compile(r"smooth: g=(-?\d+) p_g=(-?\d+) chi=(-?\d+) K2=\[(-?\d+),(-?\d+)\]")


def invariants_check(d, g):
    def check(stdout):
        lines = stdout.splitlines()
        m = _INV_RE.fullmatch(lines[0]) if lines else None
        s = _SMOOTH_RE.fullmatch(lines[1]) if len(lines) > 1 else None
        if m is None or s is None or len(lines) != 2:
            return "unexpected invariants output"
        v, e, gg, chi, p_omega, lo, hi = (int(x) for x in m.groups()[:7])
        if (v, e, gg, chi, p_omega) != (d, d + g - 1, g, 1 - g, 0):
            return f"(v,e,g,chi,p_omega) = {(v, e, gg, chi, p_omega)}"
        sg, p_g, schi, slo, shi = (int(x) for x in s.groups())
        if (sg, p_g, schi, slo, shi) != (g, 0, 1 - g, lo, hi) or not _k2_ok(lo, hi, g):
            return f"smoothing invariants {(sg, p_g, schi, slo, shi)}"
        return None

    return check


def graph_check(d, g, dot_path):
    def check(stdout):
        if stdout != f"wrote {dot_path}\n":
            return "unexpected graph output"
        with open(dot_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        vertices = sum(1 for ln in lines if re.fullmatch(r"  v\d+;", ln))
        edges = sum(1 for ln in lines if "-- " in ln and "label=" in ln)
        dashed = sum(1 for ln in lines if "style=dashed" in ln)
        faces = sum(1 for ln in lines if "/* face:" in ln)
        if (vertices, edges, dashed, faces) != (d, d + g - 1, d - 2 * g + 2, 0):
            return f"dot counts {(vertices, edges, dashed, faces)}"
        return None

    return check


def torus_check(n, m):
    """v = 2nm, e = 3nm, f = nm, homology (1,2,1)."""
    want = f"v={2 * n * m} e={3 * n * m} f={n * m} chi=0 h2=1 homology=(1,2,1)"

    def check(stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != want:
            return f"torus line {lines[:1]}, expected {want!r}"
        return None

    return check


def degenerate_check(d):
    """The ledger conserves degree d and ends in d unit planes."""

    def check(stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != f"# total degree: {d}":
            return "wrong total degree"
        if lines[-1].split() != ["P(1)"] * d:
            return "ledger does not end in d unit planes"
        return None

    return check


def feasible_check(a, b):
    """Feasible iff b - a <= 3; a witness must satisfy the placement rules."""

    def check(stdout):
        feasible = stdout.startswith("feasible: j = (")
        if feasible != (b - a <= 3):
            return f"verdict {stdout.strip()!r} for b - a = {b - a}"
        if not feasible:
            return None if stdout.startswith("infeasible: ") else "no verdict"
        j = [int(x) for x in stdout.split("(")[1].split(")")[0].split(",")]
        steps_ok = all(y - x in (1, 2) for x, y in zip(j, j[1:]))
        if len(j) != a or j[0] > 3 or not steps_ok or not a + b - 2 <= j[-1] <= a + b:
            return f"witness {j} breaks the placement rules"
        return None

    return check


def quadrics_check(d):
    """C(d+2,2) - (2d+1) quadrics through the rational normal curve, d-1 with
    a codimension-3 subspace, and the oracle agrees with both."""
    through = comb(d + 2, 2) - (2 * d + 1)
    want = [
        f"through_curve={through} with_codim3={d - 1}",
        f"formula {through} = oracle {through}",
        f"with codim-3 subspace: formula {d - 1} = oracle {d - 1}",
    ]

    def check(stdout):
        if stdout.splitlines() != want:
            return f"quadric output {stdout.splitlines()}"
        return None

    return check


# -- op lists ----------------------------------------------------------------


def _seeds(rng, n):
    return [rng.randrange(2**31) for _ in range(n)]


def construct_op(family, d, g, seed, work_dir):
    label = f"construct {family} d={d} g={g}"
    path = f"{work_dir}/{family}-d{d}-g{g}.json"
    argv = ["construct", "--family", family, "--d", str(d), "--g", str(g),
            "--seed", str(seed), "--out", path]
    return _cli_op(label, argv, construct_check(family, d, g, seed, path), (path,))


def _construct_ops(shapes, seed, work_dir):
    rng = random.Random(seed)
    ops = [
        construct_op(f, d, g, s, work_dir)
        for (f, d, g), s in zip(shapes, _seeds(rng, len(shapes)))
    ]
    rng.shuffle(ops)
    return ops


def make_grid(seed, work_dir, pkg):
    return _construct_ops(GRID_SHAPES, seed, work_dir)


def make_large(seed, work_dir, pkg):
    return _construct_ops(LARGE_SHAPES, seed, work_dir)


def analyze_inputs(seed, work_dir):
    """The construct ops that write the arrangement files ``analyze`` reads."""
    rng = random.Random(seed)
    inputs = f"{work_dir}/inputs"
    os.makedirs(inputs, exist_ok=True)
    return [
        construct_op(f, d, g, s, inputs)
        for (f, d, g), s in zip(ANALYZE_FILES, _seeds(rng, len(ANALYZE_FILES)))
    ]


def _duality_inputs(pkg, rng, count):
    """Smooth split quadrics (the hyperbolic form under a random integer
    change of coordinates), a rational point on each, and a plane that is
    not tangent to it."""
    projective = pkg.projective
    hyperbolic = projective.QuadricForm(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    )
    out = []
    while len(out) < count:
        mat = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if pkg.linalg.rank(mat) < 4:
            continue
        q = hyperbolic.congruent(mat)
        hint = projective.ProjPoint(
            pkg.linalg.clear_denominators(pkg.linalg.solve(mat, [1, 0, 0, 0]))
        )
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        if not all(any(row) for row in rows):
            continue
        plane = projective.span([projective.ProjPoint(row) for row in rows], 3)
        if plane.dim != 2 or projective.quadric_rank(q.restrict(plane)) != 3:
            continue
        out.append((q, plane, hint))
    return out


def _duality_op(label, q, plane, hint):
    def run(pkg):
        return pkg.scrolls.section_duality_check(q, plane, 8, base_point=hint)

    def check(result, stdout):
        if result != {"passed": True, "samples": 8}:
            return f"duality check returned {result!r}"
        return None

    return Op(label, run, check)


def make_analyze(seed, work_dir, pkg):
    """Read-path ops; the arrangement files come from ``analyze_inputs``."""
    rng = random.Random(seed + 1)
    ops = []
    for family, d, g in ANALYZE_FILES:
        path = f"{work_dir}/inputs/{family}-d{d}-g{g}.json"
        dot = f"{work_dir}/{family}-d{d}-g{g}.dot"
        tag = f"{family} d={d} g={g}"
        ops.append(_cli_op(f"classify {tag}", ["classify", path], classify_check(d, g)))
        ops.append(_cli_op(f"invariants {tag}", ["invariants", path, "--smooth"],
                           invariants_check(d, g)))
        ops.append(_cli_op(f"graph {tag}", ["graph", path, "--dot", dot],
                           graph_check(d, g, dot), (dot,)))
    for n, m in TORUS_SIZES:
        if rng.random() < 0.5:
            n, m = m, n
        ops.append(_cli_op(f"torus {n}x{m}", ["invariants", "--abstract", "torus", str(n), str(m)],
                           torus_check(n, m)))
    for lo, hi in DEGENERATE_DS:
        d = rng.randint(lo, hi)
        ops.append(_cli_op(f"degenerate d in [{lo},{hi}]", ["degenerate", "--d", str(d)],
                           degenerate_check(d)))
    for a in FEASIBLE_AS:
        for b in (a + rng.randint(0, 3), a + rng.randint(4, 8)):
            ops.append(_cli_op(f"feasible a={a} b-a={'<=3' if b - a <= 3 else '>3'}",
                               ["feasible", "--a", str(a), "--b", str(b)], feasible_check(a, b)))
    for d in QUADRIC_DS:
        ops.append(_cli_op(f"quadrics d={d}", ["quadrics", "--d", str(d), "--g", "0", "--oracle"],
                           quadrics_check(d)))
    for k, (q, plane, hint) in enumerate(_duality_inputs(pkg, rng, DUALITY_SAMPLES)):
        ops.append(_duality_op(f"section_duality_check #{k}", q, plane, hint))
    rng.shuffle(ops)
    return ops


def construct_warmup(work_dir):
    return [construct_op("X", 8, 2, 0, f"{work_dir}/warmup")]


def analyze_warmup(work_dir):
    family, d, g = ANALYZE_FILES[0]
    path = f"{work_dir}/inputs/{family}-d{d}-g{g}.json"
    return [
        _cli_op("warm-up classify", ["classify", path], classify_check(d, g)),
        _cli_op("warm-up torus", ["invariants", "--abstract", "torus", "2", "2"],
                torus_check(2, 2)),
        _cli_op("warm-up degenerate", ["degenerate", "--d", "5"], degenerate_check(5)),
        _cli_op("warm-up feasible", ["feasible", "--a", "2", "--b", "5"], feasible_check(2, 5)),
        _cli_op("warm-up quadrics", ["quadrics", "--d", "3", "--g", "0", "--oracle"],
                quadrics_check(3)),
    ]


WORKLOADS = {
    "construct_grid": Workload("construct_grid", make_grid, construct_warmup),
    "construct_large": Workload("construct_large", make_large, construct_warmup),
    "analyze": Workload("analyze", make_analyze, analyze_warmup),
}
