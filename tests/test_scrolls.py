import hashlib
import random
from itertools import combinations, product

import pytest

from zappatic import linalg, scrolls
from zappatic.complexes import homology
from zappatic.constructions import chain_planes
from zappatic.errors import GenericityError, RangeError
from zappatic.projective import ProjPoint, QuadricForm, Subspace, meet, plucker, quadric_rank, span
from zappatic.scrolls import (
    DegenLedger,
    FibreComponent,
    _lines_through,
    chain_feasible,
    degenerate_balanced,
    section_duality_check,
)

from oracles import dfs_chain_feasible, strip_vertex_counts
from spy import spy

HYPERBOLIC = QuadricForm(
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
)  # x0 x3 - x1 x2


class TestComponents:
    def test_scroll_degrees(self):
        assert FibreComponent.scroll(2, 3).total_degree == 5
        assert FibreComponent.scroll(1, 1).total_degree == 2
        assert FibreComponent.plane(1).total_degree == 1

    def test_labels(self):
        assert FibreComponent.scroll(2, 5).label() == "F(3;1,2)"
        assert FibreComponent.scroll(1, 1).label() == "F(0;1,1)"
        assert FibreComponent.plane(1).label() == "P(1)"
        assert FibreComponent.plane(2).label() == "P(2)"

    @pytest.mark.parametrize(
        "make,args",
        [(FibreComponent.scroll, (0, 1)), (FibreComponent.scroll, (3, 2)), (FibreComponent.plane, (-1,))],
    )
    def test_range_checks(self, make, args):
        with pytest.raises(RangeError):
            make(*args)


class TestBalancedDegeneration:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_ends_in_d_unit_planes_chain(self, d):
        led = degenerate_balanced(d)
        final = led.final_state()
        assert len(final) == d
        assert all(c.label() == "P(1)" for c in final)
        chain = chain_planes(d)
        assert len(final) == len(chain.arrangement)
        assert chain.graph.edges == tuple((i, i + 1) for i in range(d - 1))
        h = homology(chain.graph)
        assert (h.h0, h.h1, h.h2) == (1, 0, 0)

    @pytest.mark.parametrize("d", range(2, 41))
    def test_each_group_splits_one_plane_off_the_front_scroll(self, d):
        # S(x, y) in front becomes S(min(x, y-1), max(x, y-1)), or P(1) from
        # S(1, 1), and one more P(1) joins the planes behind it
        led = degenerate_balanced(d)
        unit = FibreComponent.plane(1)
        x, y = d // 2, (d + 1) // 2
        assert len(led.moves) == d - 1
        for prev, group, state in zip(led.states, led.moves, led.states[1:]):
            assert prev[0] == FibreComponent.scroll(x, y)
            if x < y:
                assert group == ("blowup_ruling(0)", f"twist(1,-{x})")
            else:
                extra = (f"twist(1,-{x - 1})",) if x > 1 else ()
                assert group == ("blowup_point(0)", "twist(1,-1)", "type_I(vertical)", *extra)
            x, y = min(x, y - 1), max(x, y - 1)
            front = unit if (x, y) == (0, 1) else FibreComponent.scroll(x, y)
            assert state == (front, *prev[1:], unit)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_degree_constant_at_every_state(self, d):
        led = degenerate_balanced(d)
        for state in led.states:
            assert sum(c.total_degree for c in state) == d

    def test_d2_is_single_move_group(self):
        assert len(degenerate_balanced(2).moves) == 1

    def test_starts_balanced(self):
        assert degenerate_balanced(7).states[0] == (FibreComponent.scroll(3, 4),)
        assert degenerate_balanced(8).states[0] == (FibreComponent.scroll(4, 4),)

    def test_serialization_pinned_format(self):
        text = degenerate_balanced(5).serialize()
        lines = text.strip().splitlines()
        assert lines[0] == "# total degree: 5"
        assert lines[1] == "F(1;1,2)"
        assert lines[2] == "# move: blowup_ruling(0)"
        assert lines[-1] == "P(1) P(1) P(1) P(1) P(1)"

    def test_serialization_pinned_for_d_2_to_119(self):
        text = "".join(degenerate_balanced(d).serialize() for d in range(2, 120))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "ddcb9e2d8e50bef14f3aaac042733f2091e4a03a5d4f4e9cd85e0d8a3a11f959"
        )

    def test_rejects_d1(self):
        with pytest.raises(RangeError):
            degenerate_balanced(1)


class TestChainFeasible:
    def test_known_instances(self):
        assert chain_feasible(2, 6)["feasible"] is False
        assert chain_feasible(2, 6)["obstruction"] == "j_a range empty (a+b-2 > 2a+1)"
        got = chain_feasible(2, 5)
        assert got["feasible"] is True
        w = got["witness"]
        assert w[0] <= 3 and w[-1] >= 5 and all(y - x in (1, 2) for x, y in zip(w, w[1:]))
        assert chain_feasible(1, 1)["feasible"] is True

    def test_closed_form_up_to_12(self):
        for a in range(1, 13):
            for b in range(a, 13):
                assert chain_feasible(a, b)["feasible"] == (b - a <= 3), (a, b)

    def test_witness_satisfies_constraints(self):
        for a in range(1, 10):
            for b in range(a, a + 4):
                got = chain_feasible(a, b)
                w = got["witness"]
                assert len(w) == a
                assert w[0] <= 3 and w[-1] >= a + b - 2 and w[-1] <= a + b
                assert all(y - x in (1, 2) for x, y in zip(w, w[1:]))

    def test_range(self):
        with pytest.raises(RangeError):
            chain_feasible(3, 2)

    def test_matches_depth_first_search(self):
        for a in range(1, 13):
            for b in range(a, a + 10):
                assert chain_feasible(a, b) == dfs_chain_feasible(a, b), (a, b)

    def test_strip_walk_on_two_placements_of_s33(self):
        # alternating sides: every inner vertex in 3 triangles
        assert strip_vertex_counts(3, 3, (2, 4, 6)) == ([2, 3, 3, 1], [1, 3, 3, 2])
        # three degree-a bases in a row fan around one degree-b vertex
        assert strip_vertex_counts(3, 3, (3, 4, 5)) == ([3, 2, 2, 2], [1, 2, 5, 1])

    def test_some_strip_has_only_triple_points_iff_feasible(self):
        # every placement of every strip with a + b <= 12
        for a in range(1, 7):
            for b in range(a, 13 - a):
                strips = (strip_vertex_counts(a, b, j) for j in combinations(range(1, a + b + 1), a))
                exists = any(max(low + high) <= 3 for low, high in strips)
                assert exists == chain_feasible(a, b)["feasible"], (a, b)

    @pytest.mark.xfail(
        strict=True,
        reason="the witness obeys the rules on the degree-a side only: "
        "feasible --a 3 --b 3 gives j = (3, 4, 5), a vertex in 5 triangles",
    )
    def test_witness_strip_has_only_triple_points(self):
        over = []
        for a in range(1, 18):
            for b in range(a, a + 4):
                low, high = strip_vertex_counts(a, b, chain_feasible(a, b)["witness"])
                if max(low + high) > 3:
                    over.append((a, b))
        assert over == []


class TestLedgerClass:
    def test_degree_mismatch_rejected(self):
        from zappatic.errors import InternalCheckError

        with pytest.raises(InternalCheckError):
            DegenLedger(
                ((FibreComponent.plane(1),), (FibreComponent.plane(2),)),
                (("twist(0,-1)",),),
                1,
            )


PI = Subspace(3, [[1, 0, 0, 1], [0, 1, 1, 0], [1, 2, 3, 4]])


def checked(quadric=HYPERBOLIC, pi=PI, n_samples=8, point=(1, 0, 0, 0)):
    """A call of section_duality_check on these inputs, for pytest.raises."""
    return lambda: section_duality_check(quadric, pi, n_samples, base_point=ProjPoint(point))


def congruent_draws(rng):
    """Endless (quadric, rational point on it): HYPERBOLIC moved by a random
    invertible matrix M, entries in [-4, 4], and M^-1 e0."""
    while True:
        mat = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if linalg.rank(mat) < 4:
            continue
        sol = linalg.solve(mat, [1, 0, 0, 0])
        yield HYPERBOLIC.congruent(mat), ProjPoint(linalg.clear_denominators(sol))


def assert_rulings_are_the_factored_ones(q, pi, base_point):
    """Each sampled ruling, its cut with pi and its Pluecker point are those
    of the ruling that _lines_through factors out at the sample point, the
    one other than the seed line; the samples are u + t v on the seed line's
    basis u, v, for t = 0, 1, -1, 2, -2, 3, -3, 4.  The check itself factors
    at two points alone: base_point and a point of the skew line."""
    seed_line, _ = _lines_through(q, base_point)
    u, v = seed_line.basis
    with spy(meet, plucker, _lines_through) as calls:
        out = section_duality_check(q, pi, 8, base_point=base_point)
    assert out == {"passed": True, "samples": 8}
    assert [c.name for c in calls].count("_lines_through") == 2
    cuts = [c for c in calls if c.name == "meet"]
    points = [c for c in calls if c.name == "plucker"]
    assert len(cuts) == len(points) == 8
    for t, cut, point in zip((0, 1, -1, 2, -2, 3, -3, 4), cuts, points):
        l1, l2 = _lines_through(q, ProjPoint([x + t * y for x, y in zip(u, v)]))
        ruling = l2 if l1 == seed_line else l1
        assert cut.args == (ruling, pi) and cut.result == meet(ruling, pi)
        assert point.args == (ruling,) and point.result == plucker(ruling)


def random_plane(rng):
    while True:
        pts = [ProjPoint([rng.randint(-9, 9) for _ in range(4)]) for _ in range(3)]
        try:
            pl = span(pts, 3)
        except ValueError:
            continue
        if pl.dim == 2:
            return pl


def constant_point():
    """A plucker that gives every ruling the first ruling's point."""
    rulings = []

    def point(ruling):
        rulings.append(ruling)
        return plucker(rulings[0])
    return point


def wrong_sixth_point():
    """A plucker that gives the sixth ruling the point of the line
    x2 = x3 = 0, which is not that ruling."""
    rulings = []

    def point(ruling):
        rulings.append(ruling)
        return plucker(Subspace(3, [[1, 0, 0, 0], [0, 1, 0, 0]]) if len(rulings) == 6 else ruling)
    return point


@pytest.mark.parametrize("fake, reason", [
    (constant_point, "no unique projectivity on the fit set"),
    (wrong_sixth_point, "sample off the fitted projection"),
], ids=["constant", "wrong_sixth"])
def test_section_duality_fails_on_a_wrong_pluecker_point(monkeypatch, fake, reason):
    """Each refusal of the projection is reached by corrupting the Pluecker
    points: a constant one fits a projectivity many ways, and a wrong one
    after the four fitted samples lies off the fitted one."""
    monkeypatch.setattr(scrolls, "plucker", fake())
    assert section_duality_check(HYPERBOLIC, PI, 8, base_point=ProjPoint([1, 0, 0, 0])) == {
        "passed": False, "reason": reason}


class TestSectionDuality:
    def test_standard_quadric_generic_plane(self):
        out = section_duality_check(HYPERBOLIC, PI, 8, base_point=ProjPoint([1, 0, 0, 0]))
        assert out["passed"] is True

    def test_plane_containing_ruling_rejected(self):
        # x0 = x1 = 0 ... the plane x0 = 0 contains the ruling x0 = x2 = 0
        pi = Subspace(3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(RangeError):
            section_duality_check(HYPERBOLIC, pi, 8, base_point=ProjPoint([1, 0, 0, 0]))

    def test_rank_check(self):
        rank2 = QuadricForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(RangeError):
            section_duality_check(rank2, PI, 8, base_point=ProjPoint([0, 0, 1, 0]))

    def test_base_point_off_the_quadric_rejected(self):
        with pytest.raises(RangeError, match="does not lie on the quadric"):
            section_duality_check(HYPERBOLIC, PI, 8, base_point=ProjPoint([1, 0, 0, 1]))

    @pytest.mark.parametrize(
        "call,match",
        [
            pytest.param(checked(QuadricForm([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
                                 Subspace(2, [[1, 0, 0], [0, 1, 0]])), "P\\^3", id="conic"),
            pytest.param(checked(pi=Subspace(3, [[1, 0, 0, 1], [0, 1, 1, 0]])),
                         "plane in P\\^3", id="line-for-plane"),
            pytest.param(checked(n_samples=5), "n_samples >= 6", id="five-samples"),
            pytest.param(checked(point=[1, 0, 0]), "base point must lie in P\\^3",
                         id="base-point-in-P2"),
            pytest.param(lambda: HYPERBOLIC.evaluate(ProjPoint([0, 0, 0, 1, 5])),
                         "ambient dimension mismatch", id="evaluate-a-point-of-P4"),
        ],
    )
    def test_input_checks(self, call, match):
        with pytest.raises(RangeError, match=match):
            call()

    # (1, 0, 0, 1) lies on both forms; the discriminant of the tangent
    # section is negative on the first, and twice a square on the second
    @pytest.mark.parametrize("diagonal,message", [
        pytest.param((1, 1, 1, -1), "no real ruling", id="sphere"),
        pytest.param((1, -2, 1, -1), "no rational ruling", id="irrational-rulings"),
    ])
    def test_seed_line_needs_a_rational_ruling(self, diagonal, message):
        q = QuadricForm([[x if i == j else 0 for j in range(4)] for i, x in enumerate(diagonal)])
        with pytest.raises(GenericityError, match=f"quadric has {message} through the point"):
            section_duality_check(q, PI, 8, base_point=ProjPoint([1, 0, 0, 1]))

    # points of x0 x3 = x1 x2; the check passes whichever ruling seeds the family
    HYPERBOLIC_POINTS = [[1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0], [1, 2, 3, 6], [2, -1, 4, -2]]

    @pytest.mark.parametrize("point", HYPERBOLIC_POINTS)
    def test_base_points_on_the_hyperbolic_quadric(self, point):
        out = section_duality_check(HYPERBOLIC, PI, 8, base_point=ProjPoint(point))
        assert out == {"passed": True, "samples": 8}

    # (substitution matrix M, a rational point of the image M^T A M)
    CONGRUENT = [
        ([[0, 1, 1, 3], [-3, -3, 2, -2], [-1, 3, -3, 3], [-3, 2, -3, -1]], [2, 0, 1, -1]),
        ([[-2, 1, -3, 0], [-2, 3, 2, 2], [3, -3, 2, -3], [2, 0, -1, -3]], [2, 2, 2, 1]),
        ([[0, 0, -3, 2], [-3, -1, 1, 1], [-1, 2, 1, 1], [0, 0, -1, 3]], [2, 1, 0, 0]),
        ([[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 0], [1, 0, 0, 2]], [1, 0, 1, 1]),
    ]

    @pytest.mark.parametrize("mat,point", CONGRUENT)
    def test_base_point_on_congruent_images(self, mat, point):
        q = HYPERBOLIC.congruent(mat)
        assert q.evaluate(ProjPoint(point)) == 0
        assert section_duality_check(q, PI, 8, base_point=ProjPoint(point))["passed"] is True

    # forms with no rational point: the identity, minus the A_4 Cartan matrix,
    # a positive form with off-diagonal terms (no real points), and
    # x0^2 + x1^2 + x2^2 - 7 x3^2 (7 t^2 is never a sum of three rational squares)
    POINTLESS = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]],
        [[2, 1, 1, 0], [1, 3, 0, 1], [1, 0, 4, 1], [0, 1, 1, 5]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -7]],
    ]

    @pytest.mark.parametrize("mat", POINTLESS)
    def test_form_without_rational_points_rejects_every_base_point(self, mat):
        q = QuadricForm(mat)
        points = [p for p in product(range(-2, 3), repeat=4) if any(p)]
        for p in points:
            with pytest.raises(RangeError, match="does not lie on the quadric"):
                section_duality_check(q, PI, 8, base_point=ProjPoint(list(p)))

    def test_twenty_randomized_instances(self):
        rng = random.Random(97)
        done = 0
        for q, hint in congruent_draws(rng):
            if done == 20:
                break
            pi = random_plane(rng)
            try:
                out = section_duality_check(q, pi, 8, base_point=hint)
            except RangeError:
                continue  # tangent plane or plane through a ruling: resample
            assert out["passed"] is True
            done += 1

    def test_sampled_rulings_are_the_factored_ones(self):
        for point in [[1, 0, 0, 0], *self.HYPERBOLIC_POINTS]:
            assert_rulings_are_the_factored_ones(HYPERBOLIC, PI, ProjPoint(point))
        for mat, point in self.CONGRUENT:
            assert_rulings_are_the_factored_ones(HYPERBOLIC.congruent(mat), PI, ProjPoint(point))

    def test_sampled_rulings_are_the_factored_ones_on_random_draws(self):
        rng = random.Random(43)
        done = 0
        for q, hint in congruent_draws(rng):
            if done == 300:
                break
            pi = random_plane(rng)
            if quadric_rank(q.restrict(pi)) == 3:  # no tangent plane, no plane through a ruling
                assert_rulings_are_the_factored_ones(q, pi, hint)
                done += 1
