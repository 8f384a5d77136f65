import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic.complexes import build_torus_complex, homology
from zappatic.errors import RangeError
from zappatic.invariants import (
    brill_noether,
    chi_normal,
    ciro_bound,
    decomposable_h1,
    hilbert_dim,
    invariants_of,
    k_bounds,
    param_breakdown,
    quadric_count,
    segre_bounds,
    smoothing_of,
)


class TestHilbertDim:
    def test_known_values(self):
        assert hilbert_dim(5, 0) == 42
        assert hilbert_dim(8, 2) == 43
        for g in (2, 3, 4):
            assert hilbert_dim(2 * g + 4, g) == 36 + 7 * (g - 1)

    def test_rational_case_closed_form(self):
        for d in range(2, 21):
            assert hilbert_dim(d, 0) == d * d + 4 * d - 3

    def test_range_errors(self):
        with pytest.raises(RangeError, match="2g\\+4"):
            hilbert_dim(7, 2)
        with pytest.raises(RangeError, match="d >= 5"):
            hilbert_dim(4, 1)
        with pytest.raises(RangeError, match="d >= 2"):
            hilbert_dim(1, 0)
        with pytest.raises(RangeError):
            hilbert_dim(5, -1)

    def test_three_routes_agree_on_100_random_inputs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = rng.randint(0, 8)
            lo = {0: 2, 1: 5}.get(g, 2 * g + 4)
            d = rng.randint(lo, lo + 30)
            hd = hilbert_dim(d, g)
            assert chi_normal(d, g) == hd
            _, total = param_breakdown(d, g)
            assert total == hd


class TestParamBreakdown:
    def test_example_7_1(self):
        items, total = param_breakdown(7, 1)
        assert [c for _, c in items] == [0, 14, 48, -10, -3]
        assert total == 49 == hilbert_dim(7, 1)

    def test_example_10_3(self):
        items, total = param_breakdown(10, 3)
        assert [c for _, c in items] == [6, 20, 35, -8, -3]
        assert total == 50 == hilbert_dim(10, 3)


class TestSegreBounds:
    def test_cubic_elliptic(self):
        b = segre_bounds(3, 1)
        assert (b["h0_min"], b["h0_max"]) == (3, 4)
        assert (b["h1_min"], b["h1_max"]) == (0, 1)

    def test_minimal_degree(self):
        for g in range(1, 8):
            b = segre_bounds(2 * g + 1, g)
            assert (b["h0_min"], b["h0_max"]) == (3, g + 3)

    def test_interval_widths_equal_g(self):
        rng = random.Random(29)
        for _ in range(40):
            g = rng.randint(1, 10)
            d = rng.randint(2 * g + 1, 2 * g + 25)
            b = segre_bounds(d, g)
            assert b["h0_max"] - b["h0_min"] == g == b["h1_max"] - b["h1_min"]
            assert b["h0_min"] - b["h1_min"] == b["chi"] == d - 2 * g + 2
            assert b["h0_max"] - b["h1_max"] == b["chi"]

    def test_range(self):
        with pytest.raises(RangeError):
            segre_bounds(4, 2)
        with pytest.raises(RangeError):
            segre_bounds(10, 0)


class TestDecomposableH1:
    def test_canonical_summand_example(self):
        out = decomposable_h1(g=3, deg_L=4, i=1, d=16)
        assert out == {"h1_total": 1, "h0_total": 13}

    def test_trivial_bundle_cone_case(self):
        # deg_L = 0 with i = g is the cone: h0 = d - g + 2
        for g in (2, 3, 5):
            d = 3 * g + 4
            out = decomposable_h1(g=g, deg_L=0, i=g, d=d)
            assert out["h0_total"] == d - g + 2
            assert out["h0_total"] == segre_bounds(d, g)["h0_max"]

    def test_i_zero_rejected(self):
        with pytest.raises(RangeError):
            decomposable_h1(g=3, deg_L=4, i=0, d=16)

    def test_other_ranges(self):
        with pytest.raises(RangeError, match="2g-2"):
            decomposable_h1(g=3, deg_L=5, i=1, d=30)
        with pytest.raises(RangeError, match="2g\\+1"):
            decomposable_h1(g=3, deg_L=4, i=1, d=10)


class TestBrillNoether:
    def test_special_g3_schema(self):
        # g = 4l + eps and m = 3 + g - l give rho(g, 3, m) = eps
        for l in (1, 2, 3):
            for eps in (0, 1, 2, 3):
                g = 4 * l + eps
                m = 3 + g - l
                assert brill_noether(g, 3, m) == eps

    def test_examples(self):
        assert brill_noether(4, 3, 6) == 0
        assert brill_noether(7, 3, 9) == 3
        for g in (1, 4, 9):
            assert brill_noether(g, 0, g) == g


class TestCiroBound:
    def test_g4_cases(self):
        out = ciro_bound(l=1, eps=0, d=18)
        assert out["exceeds"] is True
        assert out["hilbert"] == hilbert_dim(18, 4)
        # at d = 22 the summands are 9 + 4 + 0 + 16 + 255 against 277
        out22 = ciro_bound(l=1, eps=0, d=22)
        assert (out22["lower_bound"], out22["hilbert"]) == (284, 277)
        assert out22["exceeds"] is True

    def test_eps2_boundary(self):
        out = ciro_bound(l=1, eps=2, d=2 * 6 + 11)
        assert out["exceeds"] is True

    def test_below_range_rejected(self):
        with pytest.raises(RangeError):
            ciro_bound(l=1, eps=0, d=2 * 4 + 4)


class TestQuadricCount:
    def test_twisted_cubic(self):
        out = quadric_count(3, 0)
        assert out == {"through_curve": 3, "through_curve_and_codim3": 2}

    def test_quartic(self):
        assert quadric_count(4, 0)["through_curve"] == 6

    def test_minimal_degree_gives_one(self):
        for g in range(0, 9):
            assert quadric_count(2 * g + 2, g)["through_curve_and_codim3"] == 1

    def test_range(self):
        with pytest.raises(RangeError):
            quadric_count(5, 2)


class TestKBounds:
    def test_only_s4(self):
        assert k_bounds({3: 6}, {4: 2}) == (4, 6)

    def test_mixed(self):
        # r_5 contributes (m-2) = 3 to the bottom and (2m-5) = 5 to the top,
        # s_5 contributes 3 and C(4,2) = 6
        assert k_bounds({5: 1}, {5: 1}) == (6, 11)


class TestInvariantsOfTorus:
    def test_abelian_degeneration_profile(self):
        g = build_torus_complex(2, 2)
        inv = invariants_of(None, g)
        assert inv.chi == 0
        assert inv.p_omega == 1
        assert inv.K2_interval == (0, 0)
        sm = smoothing_of(inv)
        assert (sm.p_g, sm.chi, sm.K2_interval) == (1, 0, (0, 0))

    def test_carries_the_homology_it_computed(self):
        g = build_torus_complex(3, 5)
        inv = invariants_of(None, g)
        assert inv.homology == homology(g)
        assert inv.p_omega == inv.homology.h2


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40))
def test_dimension_identity_property(g, extra):
    lo = {0: 2, 1: 5}.get(g, 2 * g + 4)
    d = lo + extra
    assert hilbert_dim(d, g) == chi_normal(d, g) == param_breakdown(d, g)[1]
