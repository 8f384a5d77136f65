import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic.complexes import build_torus_complex, homology
from zappatic.errors import RangeError
from zappatic.invariants import (
    brill_noether,
    ciro_bound,
    hilbert_dim,
    invariants_of,
    k_bounds,
    quadric_count,
    smoothing_of,
)

from oracles import chi_normal, param_breakdown


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
        inv = invariants_of(g)
        assert inv.chi == 0
        assert inv.p_omega == 1
        assert inv.K2_interval == (0, 0)
        sm = smoothing_of(inv)
        assert (sm.p_g, sm.chi, sm.K2_interval) == (1, 0, (0, 0))

    def test_carries_the_homology_it_computed(self):
        g = build_torus_complex(3, 5)
        inv = invariants_of(g)
        assert inv.homology == homology(g)
        assert inv.p_omega == inv.homology.h2


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40))
def test_dimension_identity_property(g, extra):
    lo = {0: 2, 1: 5}.get(g, 2 * g + 4)
    d = lo + extra
    assert hilbert_dim(d, g) == chi_normal(d, g) == param_breakdown(d, g)[1]
