"""End-to-end acceptance suite.

Every check is exact (tolerance zero).  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.
"""

import random
import subprocess
import sys

import pytest

from zappatic import linalg
from zappatic.arrangement import compute_incidence
from zappatic.complexes import build_dual_graph, build_torus_complex, homology
from zappatic.constructions import (
    build_X,
    build_Z,
    chain_planes,
    cycle_from_chain,
    cycle_planes,
    first_disjoint_central_pair,
)
from zappatic.invariants import hilbert_dim, invariants_of, quadric_count
from zappatic.projective import (
    ProjPoint,
    QuadricForm,
    Subspace,
    klein_value,
    meet,
    plucker,
    quadrics_through,
    span,
)
from zappatic.scrolls import chain_feasible, degenerate_balanced, section_duality_check

from oracles import (
    chi_normal,
    meet_first_disjoint_central_pair,
    param_breakdown,
    report_disagreements,
    verify_transversality,
)

GRID = [
    (d, g, seed)
    for g in (2, 3, 4)
    for d in range(2 * g + 4, 2 * g + 11)
    for seed in (0, 1, 2)
]


@pytest.fixture(scope="module")
def grid_results():
    return {(d, g, s): build_X(d, g, seed=s) for d, g, s in GRID}


def _ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


def test_criterion_01_construction_counts(grid_results):
    for (d, g, s), res in grid_results.items():
        rep = res.report
        assert rep.is_zappatic, (d, g, s)
        assert rep.r_counts == {3: d - 2 * g + 2}, (d, g, s)
        assert rep.s_counts == {4: 2 * g - 2}, (d, g, s)
        inv = invariants_of(res.graph)
        assert inv.g == g and inv.chi == 1 - g and inv.p_omega == 0, (d, g, s)
    _ok(1, f"{len(GRID)} builds match d-2g+2 / 2g-2 counts, genus, chi, p_omega")


def test_report_counts_and_centrals_match_the_dual_complex(grid_results):
    for key, res in grid_results.items():
        assert not report_disagreements(res.incidence, res.report, res.graph), key


def test_lazy_graph_is_the_dual_graph_of_the_build(grid_results):
    for key, res in grid_results.items():
        assert res.graph == build_dual_graph(res.arrangement, res.incidence, res.report), key
        assert res.num_edges == res.graph.num_edges, key


def test_disjoint_central_pair_matches_plane_meets(grid_results):
    for res in grid_results.values():
        assert first_disjoint_central_pair(res) == meet_first_disjoint_central_pair(res)


def test_grown_incidence_matches_from_scratch(grid_results):
    """Each attachment grows the incidence of the old planes; the result is
    the incidence of the whole arrangement."""
    for key, res in grid_results.items():
        assert res.incidence == compute_incidence(res.arrangement), key


def test_criterion_02_k2_reproduction(grid_results):
    for (d, g, s), res in grid_results.items():
        inv = invariants_of(res.graph)
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g)), (d, g, s)
    _ok(2, "K2 interval equals [8(1-g), 6(1-g)] on every grid surface")


def test_criterion_03_dimension_identities():
    rng = random.Random(1234)
    for _ in range(100):
        g = rng.randint(0, 9)
        lo = {0: 2, 1: 5}.get(g, 2 * g + 4)
        d = rng.randint(lo, lo + 40)
        assert hilbert_dim(d, g) == chi_normal(d, g) == param_breakdown(d, g)[1]
    for d in range(2, 21):
        assert hilbert_dim(d, 0) == d * d + 4 * d - 3
    assert hilbert_dim(5, 0) == 42
    _ok(3, "hilbert_dim = chi_normal = parameter total; d^2+4d-3 for g=0; 42 at (5,0)")


def test_criterion_04_cycle_chain_families():
    for d in range(5, 13):
        res = cycle_planes(d)
        assert res.report.r_counts == {3: d}
        arr = res.arrangement
        has_disjoint = any(
            meet(arr.planes[i], arr.planes[j]).dim == -1
            for i in range(d)
            for j in range(i + 1, d)
        )
        assert has_disjoint == (d >= 6), d
    for d in range(2, 13):
        assert chain_planes(d).report.r_counts.get(3, 0) == d - 2
    _ok(4, "cycle/chain chain-point counts and disjoint-pair threshold d >= 6")


def test_criterion_05_transversality(grid_results):
    checked = 0
    for (d, g, s), res in grid_results.items():
        planes = res.arrangement.planes
        base = len(planes) - 2 * len(res.attachments)
        for t, rec in enumerate(res.attachments):
            present = planes[: base + 2 * t]
            i, j = rec.chosen_planes
            for k, sub in enumerate(present):
                inter = meet(rec.span_pi, sub)
                if k == i:
                    assert inter == rec.lines[0], (d, g, s, t, k)
                elif k == j:
                    assert inter == rec.lines[1], (d, g, s, t, k)
                else:
                    assert inter.dim <= 0, (d, g, s, t, k)
            checked += 1
    # the degree-5 cycle closed from a chain shows the one extra line
    res5 = cycle_from_chain(5, seed=0)
    rec = res5.attachments[0]
    base3 = chain_planes(3).arrangement
    extra = meet(rec.span_pi, base3.planes[1])
    assert extra.dim == 1
    tr = verify_transversality(base3, rec.span_pi, list(rec.lines) + [extra])
    assert tr.passed and len(tr.positive_dims) == 3
    _ok(5, f"{checked} handle spans meet non-anchor planes in dim <= 0; d=5 extra line seen")


def test_criterion_06_balanced_degeneration():
    for d in range(2, 11):
        led = degenerate_balanced(d)
        final = led.final_state()
        assert len(final) == d
        assert all(c.label() == "P(1)" for c in final)
        for state in led.states:
            assert sum(c.total_degree for c in state) == d
        chain = chain_planes(d)
        assert len(final) == len(chain.arrangement)
        assert chain.graph.edges == tuple((i, i + 1) for i in range(d - 1))
        h = homology(chain.graph)
        assert (h.h0, h.h1, h.h2) == (1, 0, 0)
    _ok(6, "degenerations end in d unit planes on a path; degree conserved stepwise")


def test_criterion_07_chain_obstruction():
    for a in range(1, 13):
        for b in range(a, 13):
            assert chain_feasible(a, b)["feasible"] == (b - a <= 3), (a, b)
    assert chain_feasible(2, 6)["feasible"] is False
    assert chain_feasible(2, 5)["feasible"] is True
    _ok(7, "feasible iff b-a <= 3 for all 1 <= a <= b <= 12; (2,6) no, (2,5) yes")


def _rnc_samples(d):
    return [ProjPoint([t**k for k in range(d + 1)]) for t in range(-(d + 1), d + 1)]


def _generic_codim3(r, seed=0):
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(r - 2)]
        sigma = Subspace(r, rows)
        if sigma.dim == r - 3:
            return sigma


def test_criterion_08_quadric_systems():
    for d in (3, 4, 5):
        counts = quadric_count(d, 0)
        samples = _rnc_samples(d)
        _, basis = quadrics_through(samples, [], d)
        assert len(basis) == counts["through_curve"], d
        _, basis3 = quadrics_through(samples, [_generic_codim3(d)], d)
        assert len(basis3) == counts["through_curve_and_codim3"] == d - 1, d
    assert quadric_count(3, 0)["through_curve"] == 3
    assert quadric_count(3, 0)["through_curve_and_codim3"] == 2
    _ok(8, "formula matches sampling oracle for d = 3,4,5, with and without codim-3")


def test_criterion_09_plucker_duality():
    hyperbolic = QuadricForm(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    )
    rng = random.Random(4242)
    done = 0
    while done < 20:
        mat = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if linalg.rank(mat) < 4:
            continue
        q = hyperbolic.congruent(mat)
        sol = linalg.solve(mat, [1, 0, 0, 0])
        hint = ProjPoint(linalg.clear_denominators(sol))
        pts = [ProjPoint([rng.randint(-9, 9) for _ in range(4)]) for _ in range(3)]
        pl = span(pts, 3)
        if pl.dim != 2:
            continue
        try:
            out = section_duality_check(q, pl, 8, base_point=hint)
        except Exception:
            continue
        assert out["passed"] is True
        done += 1
    lines_done = 0
    while lines_done < 100:
        a = ProjPoint([rng.randint(-20, 20) or 1 for _ in range(4)])
        b = ProjPoint([rng.randint(-20, 20) or 1 for _ in range(4)])
        line = span([a, b], 3)
        if line.dim != 1:
            continue
        assert klein_value(plucker(line).coords) == 0
        lines_done += 1
    _ok(9, "20 randomized duality instances pass; 100 Pluecker images satisfy Klein")


def test_criterion_10_torus_complex():
    for n in (2, 3):
        for m in (2, 3):
            g = build_torus_complex(n, m)
            assert g.num_vertices == 2 * n * m
            assert g.num_edges == 3 * n * m
            assert g.num_faces == n * m
            h = homology(g)
            assert h.euler == 0 and (h.h0, h.h1, h.h2) == (1, 2, 1)
    _ok(10, "torus complexes have v=2nm, e=3nm, f=nm, chi=0, homology (1,2,1)")


def test_criterion_11_discrepancy_surfacing():
    x = build_X(8, 2, seed=0)
    assert any("3g+6+c" in n and "d+g-1" in n for n in x.discrepancies)
    z = build_Z(8, 2, seed=0)
    assert any("d-2g+1" in n and "d+g-1" in n for n in z.discrepancies)
    assert x.num_edges == z.num_edges == 9  # the derived value, not either tally
    _ok(11, "edge-count discrepancy notes emitted; derived d+g-1 adopted")


def test_criterion_12_determinism(tmp_path, cli_env):
    cmd = [
        sys.executable, "-m", "zappatic.cli", "construct", "--family", "X",
        "--d", "12", "--g", "3", "--seed", "99",
    ]
    r1 = subprocess.run(
        cmd + ["--out", str(tmp_path / "a.json")], capture_output=True, env=cli_env
    )
    r2 = subprocess.run(
        cmd + ["--out", str(tmp_path / "b.json")], capture_output=True, env=cli_env
    )
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout.replace(b"a.json", b"x") == r2.stdout.replace(b"b.json", b"x")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    _ok(12, "construct output byte-identical across runs with equal seeds")
