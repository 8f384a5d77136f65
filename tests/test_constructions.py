import pytest

from zappatic import constructions
from zappatic.constructions import (
    attach_handle,
    build_X,
    build_Y,
    build_Z,
    chain_planes,
    cycle_from_chain,
    cycle_planes,
    first_disjoint_central_pair,
    verify_transversality,
)
from zappatic.errors import GenericityError, RangeError
from zappatic.invariants import invariants_of
from zappatic.projective import meet, span_subspaces


class TestChain:
    def test_d2_two_planes_one_line(self):
        res = chain_planes(2)
        assert len(res.arrangement) == 2
        assert res.num_edges == 1
        assert res.incidence.singular_points == ()
        assert res.report.is_zappatic

    def test_d6_counts(self):
        res = chain_planes(6)
        assert res.report.r_counts == {3: 4}
        assert res.num_edges == 5

    @pytest.mark.parametrize("d", range(2, 13))
    def test_sectional_genus_zero(self, d):
        res = chain_planes(d)
        inv = invariants_of(res.report, res.graph)
        assert inv.g == 0 and inv.chi == 1 and inv.p_omega == 0
        assert inv.K2_interval == (8, 8)
        assert res.report.r_counts.get(3, 0) == d - 2

    def test_range(self):
        with pytest.raises(RangeError):
            chain_planes(1)


class TestCycle:
    @pytest.mark.parametrize("d", range(5, 13))
    def test_counts_and_invariants(self, d):
        res = cycle_planes(d)
        assert res.report.r_counts == {3: d}
        assert len(res.incidence.singular_points) == d
        inv = invariants_of(res.report, res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (1, 0, 0)
        assert inv.K2_interval == (0, 0)

    def test_disjoint_pairs_iff_d_at_least_6(self):
        res5 = cycle_planes(5)
        arr5 = res5.arrangement
        assert all(
            not meet(arr5.subspace(i), arr5.subspace(j)).is_empty()
            for i in range(5)
            for j in range(i + 1, 5)
        )
        res6 = cycle_planes(6)
        assert meet(res6.arrangement.subspace(0), res6.arrangement.subspace(3)).is_empty()

    def test_chordless_meets_are_points(self):
        arr = cycle_planes(5).arrangement
        assert meet(arr.subspace(0), arr.subspace(2)).dim == 0

    def test_range(self):
        with pytest.raises(RangeError):
            cycle_planes(4)


class TestAttachHandle:
    def test_cycle6_handle_gives_x82_profile(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=11)
        assert len(out.arrangement) == 8
        assert out.report.r_counts == {3: 6}
        assert out.report.s_counts == {4: 2}
        inv = invariants_of(out.report, out.graph)
        assert inv.g == 2

    def test_handle_transversality_witness(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=11)
        rec = out.attachments[-1]
        tr = verify_transversality(res.arrangement, rec.span_pi, rec.lines)
        assert tr.passed
        assert {k for k, _ in tr.positive_dims} == {0, 3}

    def test_non_disjoint_planes_rejected(self):
        res = cycle_planes(6)
        with pytest.raises(RangeError, match="not disjoint"):
            attach_handle(res, 0, 1, seed=1)

    def test_non_central_plane_rejected(self):
        res = cycle_planes(6)
        out = attach_handle(res, 0, 3, seed=3)
        # the anchors of the first handle are S_4 points now; their planes are
        # no longer R_3 central
        with pytest.raises(RangeError, match="central"):
            attach_handle(out, 0, 3, seed=4)


class TestBuildX:
    @pytest.mark.parametrize(
        "d,g", [(8, 2), (9, 2), (10, 3), (12, 4), (12, 2), (11, 3)]
    )
    def test_profile(self, d, g):
        res = build_X(d, g, seed=5)
        rep = res.report
        assert len(res.arrangement) == d
        assert rep.r_counts == {3: d - 2 * g + 2}
        assert rep.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(rep, res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (g, 1 - g, 0)
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_g0_g1_delegate(self):
        assert build_X(7, 0).family == "chain"
        assert build_X(7, 1).family == "cycle"

    def test_degenerate_ranges(self):
        with pytest.raises(RangeError, match="2g\\+4"):
            build_X(2 * 3 + 3, 3, seed=0)  # d = 2g+3 is out of range
        with pytest.raises(RangeError):
            build_X(4, 1)

    def test_determinism(self):
        a = build_X(10, 3, seed=77)
        b = build_X(10, 3, seed=77)
        assert a.arrangement == b.arrangement
        assert [r.lines for r in a.attachments] == [r.lines for r in b.attachments]

    def test_different_seed_different_lines(self):
        a = build_X(8, 2, seed=1)
        b = build_X(8, 2, seed=2)
        assert a.attachments[0].lines != b.attachments[0].lines
        # but identical combinatorics
        assert a.report.r_counts == b.report.r_counts

    def test_discrepancy_note_emitted(self):
        res = build_X(8, 2, seed=1)
        assert any("3g+6+c" in note for note in res.discrepancies)
        assert any(f"e = d+g-1 = {8 + 2 - 1}" in note for note in res.discrepancies)

    def test_disjoint_central_pair_exists_in_result(self):
        res = build_X(10, 3, seed=9)
        assert first_disjoint_central_pair(res) is not None


class TestCycleFromChain:
    def test_d5_exhibits_extra_line_in_central_plane(self):
        res = cycle_from_chain(5, seed=21)
        assert res.report.r_counts == {3: 5}
        rec = res.attachments[0]
        base = chain_planes(3).arrangement
        extra = meet(rec.span_pi, base.subspace(1))
        assert extra.dim == 1  # forced line in the central plane
        tr = verify_transversality(base, rec.span_pi, list(rec.lines) + [extra])
        assert tr.passed
        assert len(tr.positive_dims) == 3

    @pytest.mark.parametrize("d", [6, 7, 9])
    def test_d_at_least_6_meets_chain_in_lines_only_at_ends(self, d):
        res = cycle_from_chain(d, seed=22)
        assert res.report.r_counts == {3: d}
        rec = res.attachments[0]
        base = chain_planes(d - 2).arrangement
        tr = verify_transversality(base, rec.span_pi, rec.lines)
        assert tr.passed
        assert {k for k, _ in tr.positive_dims} == {0, d - 3}

    def test_matches_cycle_profile(self):
        res = cycle_from_chain(7, seed=23)
        inv = invariants_of(res.report, res.graph)
        assert (inv.g, inv.chi, inv.p_omega) == (1, 0, 0)


class TestTransversalityReport:
    def test_flags_contained_plane(self):
        res = chain_planes(4)
        arr = res.arrangement
        # a 3-space containing plane 0 entirely
        pi = span_subspaces(
            [arr.subspace(0), arr.subspace(1)], arr.ambient_dim
        )
        assert pi.dim == 3
        tr = verify_transversality(arr, pi, [])
        assert not tr.passed
        assert 0 in tr.offending

    def test_requires_dim3(self):
        res = chain_planes(4)
        with pytest.raises(RangeError):
            verify_transversality(res.arrangement, res.arrangement.subspace(0), [])


class TestBuildY:
    @pytest.mark.parametrize("d,g", [(9, 2), (13, 3), (10, 2)])
    def test_profile(self, d, g):
        res = build_Y(d, g, seed=3)
        assert len(res.arrangement) == d
        assert res.report.r_counts == {3: d - 2 * g + 2}
        assert res.report.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(res.report, res.graph)
        assert inv.g == g
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_fig_example_13_3(self):
        res = build_Y(13, 3, seed=1)
        assert res.report.r_counts == {3: 9}
        assert res.report.s_counts == {4: 4}
        assert res.num_edges == 15

    def test_range(self):
        with pytest.raises(RangeError, match="4g"):
            build_Y(12, 3, seed=0)
        with pytest.raises(RangeError):
            build_Y(9, 1, seed=0)


class TestBuildZ:
    def test_base_case_is_cycle(self):
        res = build_Z(5, 1, seed=0)
        assert res.family == "Z"
        assert res.report.r_counts == {3: 5}
        assert any("d-2g+1" in n for n in res.discrepancies)

    @pytest.mark.parametrize("d,g", [(8, 2), (11, 3), (9, 2)])
    def test_profile(self, d, g):
        res = build_Z(d, g, seed=6)
        assert len(res.arrangement) == d
        assert res.report.r_counts == {3: d - 2 * g + 2}
        assert res.report.s_counts == {4: 2 * g - 2}
        assert res.num_edges == d + g - 1
        inv = invariants_of(res.report, res.graph)
        assert inv.K2_interval == (8 * (1 - g), 6 * (1 - g))

    def test_8_2_discrepancy_and_edges(self):
        res = build_Z(8, 2, seed=2)
        assert res.num_edges == 9
        assert any("d-2g+1" in n and "derived" in n for n in res.discrepancies)

    def test_range(self):
        with pytest.raises(RangeError, match="3g\\+2"):
            build_Z(7, 2, seed=0)


class TestFamilyAgreement:
    @pytest.mark.parametrize("d,g", [(9, 2), (13, 3)])
    def test_x_y_z_share_invariant_profile(self, d, g):
        rx = build_X(d, g, seed=4)
        ry = build_Y(d, g, seed=4)
        rz = build_Z(d, g, seed=4)
        ix = invariants_of(rx.report, rx.graph)
        iy = invariants_of(ry.report, ry.graph)
        iz = invariants_of(rz.report, rz.graph)
        assert ix == iy == iz


def _family_zoo():
    yield chain_planes(9)
    yield cycle_planes(8)
    yield build_X(12, 3, seed=8)
    yield build_Y(13, 3, seed=8)
    yield build_Z(11, 3, seed=8)


class TestCrossModuleConsistency:
    def test_double_lines_lie_on_exactly_two_planes(self):
        for res in _family_zoo():
            arr = res.arrangement
            for i, j, line in res.incidence.double_lines:
                on = [k for k in range(len(arr)) if arr.subspace(k).contains(line)]
                assert on == sorted((i, j))

    def test_local_graphs_are_subgraphs_of_dual_graph(self):
        for res in _family_zoo():
            edges = set(res.graph.edges)
            for sp in res.incidence.singular_points:
                for a, b in sp.local_edges:
                    assert (min(a, b), max(a, b)) in edges
                    assert a in sp.incident_planes and b in sp.incident_planes


class TestGenericityExhaustion:
    """With no retries allowed, every attachment path gives up with a
    GenericityError that names the chosen planes."""

    @pytest.fixture(autouse=True)
    def no_retries(self, monkeypatch):
        monkeypatch.setattr(constructions, "RETRY_CAP", 0)

    def test_attach_handle(self):
        base = cycle_planes(6)
        i, j = first_disjoint_central_pair(base)
        with pytest.raises(GenericityError, match=rf"planes \({i}, ?{j}\)"):
            attach_handle(base, i, j, seed=0)

    def test_build_Y(self):
        # the outermost pair joins the end planes 0 and 4 of the 5-chain
        with pytest.raises(GenericityError, match=r"planes \(0, ?4\)"):
            build_Y(9, 2, seed=0)

    def test_build_Z(self):
        i, j = first_disjoint_central_pair(cycle_planes(6))
        with pytest.raises(GenericityError, match=rf"planes \({i}, ?{j}\)"):
            build_Z(9, 2, seed=0)

    def test_cycle_from_chain(self):
        with pytest.raises(GenericityError, match=r"planes \(0, ?3\)"):
            cycle_from_chain(6, seed=0)
