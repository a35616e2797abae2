import random
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

import pytest

from hcs import (
    AnticliqueProfile,
    EMPTY_PROFILE,
    OptimizationInstance,
    SimpleGraph,
    alternative_1,
    basic_edge_bound,
    build_extremal,
    certify_nonnegative_on_interval,
    core_side_edge_bound,
    density_threshold,
    get_alternative,
    iterated_edge_bound,
    separable_density_check,
    split_maximum,
    verify_all_bounds,
    verify_alternative,
    verify_basic_bounds,
)
from hcs import bounds
from hcs.bounds import (
    _poly_eval,
    halving_depth,
    reports_to_csv,
    reports_to_json,
    split_is_feasible,
)
from hcs.field import sqrt
from conftest import split_maximum_grid


# alt3's least delta, 2 + 5954167/5369280 (about 3.1089321), and its binding row
ALT3_LEAST_DELTA = 2 + Fraction(5954167, 5369280)
ALT3_BINDING_ROW = "alt3/base/g[2.04,2.08]"


class TestParameterAlternatives:
    def test_alt1_default_is_boundary(self):
        alt = get_alternative(1)
        assert alt.sigma == (sqrt(2) + 1) / sqrt(3)
        assert alt.rho == 1
        # delta - 2 equals 2*sqrt(2/3) at the boundary sigma, exactly
        assert alt.delta - 2 == 2 * sqrt(Fraction(2, 3))

    def test_alt1_custom_sigma(self):
        alt = alternative_1(sigma=Fraction(3, 2))
        assert alt.sigma == Fraction(3, 2)
        assert alt.gamma == Fraction(2, 9)
        assert alt.delta == 2 + Fraction(3, 2) + Fraction(2, 9)
        alt = alternative_1(sigma=2)
        assert (alt.sigma, alt.gamma, alt.delta) == (2, Fraction(1, 6), Fraction(25, 6))
        assert all(type(x) is Fraction for x in (alt.sigma, alt.gamma, alt.delta))
        # a float is read as the decimal it prints as
        assert alternative_1(sigma=1.4).sigma == Fraction(7, 5)

    def test_alt1_field_sigma(self):
        alt = alternative_1(sigma=sqrt(3))
        assert alt.sigma == sqrt(3)
        assert alt.gamma == sqrt(3) / 9
        assert alt.delta == 2 + Fraction(10, 9) * sqrt(3)

    def test_alt1_rejects_small_sigma(self):
        with pytest.raises(ValueError):
            alternative_1(sigma=1)
        with pytest.raises(ValueError):
            alternative_1(sigma=(sqrt(2) + 1) / sqrt(3) - Fraction(1, 10**30))

    def test_alt2_constants(self):
        alt = get_alternative(2)
        assert alt.sigma == sqrt(10) / 6
        assert abs(alt.sigma - Fraction("0.52704627669472988866648225740545")) < Fraction(1, 10**32)
        assert alt.delta < Fraction(316, 100)
        assert alt.gamma >= Fraction(105, 100)
        assert alt.rho == 2

    def test_alt3_exact(self):
        alt = get_alternative(3)
        assert alt.sigma == Fraction(1, 5)
        assert alt.gamma == Fraction(6, 5)
        assert alt.rho == 3
        assert alt.delta == Fraction(3109, 1000)

    def test_delta_dominates_gamma(self):
        for alt_id in (1, 2, 3):
            alt = get_alternative(alt_id)
            assert alt.delta >= alt.gamma + 1
        with pytest.raises(ValueError, match="delta >= 1 \\+ gamma"):
            replace(get_alternative(3), delta=Fraction(2))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            get_alternative(4)
        with pytest.raises(ValueError, match="unknown alternative id 4"):
            verify_alternative(replace(get_alternative(3), id=4))

    def test_each_alternative_built_once(self):
        for alt_id in (1, 2, 3):
            assert get_alternative(alt_id) is get_alternative(alt_id)
        for _ in range(2):  # a failed id is not cached
            with pytest.raises(ValueError):
                get_alternative(4)

    def test_density_threshold(self):
        assert density_threshold(get_alternative(3), 2) == Fraction(5218, 1000)
        # alternative 1: 2(2 + 2 sqrt(2/3)) - 1, exactly
        assert density_threshold(get_alternative(1), 2) == 3 + 4 * sqrt(Fraction(2, 3))


class TestSplitMaximum:
    def test_tabulated_values(self):
        assert split_maximum(OptimizationInstance(2.0, (), 0.5))[2] == pytest.approx(2.5)
        assert split_maximum(OptimizationInstance(2.0, (1.0,), 0.5))[2] == pytest.approx(2.0)
        assert split_maximum(OptimizationInstance(2.0, (1.0,), 1.0))[2] == pytest.approx(1.5)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            OptimizationInstance(1.0, (2.0,), 0.0)  # norm exceeds z
        with pytest.raises(ValueError):
            OptimizationInstance(1.0, (), 0.6)  # tau beyond z/2
        with pytest.raises(ValueError):
            OptimizationInstance(1.0, (-0.1,), 0.0)
        with pytest.raises(ValueError):
            OptimizationInstance(0.0, (), 0.0)

    def test_grid_guards(self):
        inst = OptimizationInstance(1.0, (0.5,), 0.25)
        with pytest.raises(ValueError):
            split_maximum_grid(inst, Fraction(1, 512))
        with pytest.raises(ValueError):
            split_maximum_grid(OptimizationInstance(1.0, (0.3, 0.3, 0.3, 0.3), 0.0))

    def test_infeasible_splits(self):
        inst = OptimizationInstance(2.0, (1.5,), 0.5)
        assert split_is_feasible(inst, 1.0, (0.5,))
        assert not split_is_feasible(inst, 0.4, (0.0,))  # x below tau
        assert not split_is_feasible(inst, 1.0, (1.2,))  # the x side's norm exceeds x
        assert not split_is_feasible(inst, 1.0, (0.0,))  # the other side's norm exceeds z - x

    def test_forced_single_point(self):
        assert split_maximum_grid(OptimizationInstance(1.0, (), 0.5)) == pytest.approx(0.5)

    def test_degenerate_full_mass(self):
        inst = OptimizationInstance(2.0, (2.0,), 0.0)
        _, _, best = split_maximum(inst)
        assert best == pytest.approx(0.0)
        assert split_maximum_grid(inst) <= best + 1e-9

    def test_grid_never_beats_closed_form(self):
        rng = random.Random(9)
        for _ in range(30):
            length = rng.randint(0, 3)
            z = rng.uniform(0.5, 1.5)
            raw = [rng.random() for _ in range(length)]
            norm = sum(v * v for v in raw) ** 0.5 or 1.0
            scale = rng.uniform(0.0, 0.95) * z / norm
            zs = tuple(v * scale for v in raw)
            tau = rng.uniform(0, z / 2)
            inst = OptimizationInstance(z, zs, tau)
            x, xs, best = split_maximum(inst)
            assert split_is_feasible(inst, x, xs)
            assert split_maximum_grid(inst) <= best + 1e-9

    def test_value_nonincreasing_in_tau(self):
        # moving the floor up can only shrink the achievable maximum
        for zs in ((), (0.8,), (0.5, 0.5)):
            prev = None
            for i in range(11):
                inst = OptimizationInstance(2.0, zs, i / 10)
                value = split_maximum(inst)[2]
                if prev is not None:
                    assert value <= prev + 1e-12
                prev = value


class TestEdgeBounds:
    def test_basic(self):
        assert basic_edge_bound(Fraction(1), Fraction(1)) == 4
        assert basic_edge_bound(Fraction(2), Fraction(1)) == 7

    def test_basic_boundary_equality_at_sharp_sigma(self):
        # at sigma = 1/sqrt(2) and g = sqrt(2) the bound meets delta*g exactly
        s = 1 / sqrt(2)
        g = sqrt(2)
        delta = 2 + s + 1 / (2 * s)
        assert basic_edge_bound(g, s) == delta * g

    def test_basic_domain(self):
        with pytest.raises(ValueError):
            basic_edge_bound(Fraction(-1), Fraction(1))
        with pytest.raises(ValueError):
            basic_edge_bound(Fraction(1), Fraction(0))
        with pytest.raises(ValueError, match="sigma must be positive"):
            basic_edge_bound(Fraction(1), Fraction(-1))

    def test_halving_depth(self):
        assert halving_depth(Fraction(1), Fraction(1)) == 1
        assert halving_depth(Fraction(2), Fraction(1)) == 1
        assert halving_depth(Fraction(201, 100), Fraction(1)) == 2
        assert halving_depth(Fraction(8, 5), Fraction(1, 5)) == 3
        for sigma in (Fraction(0), Fraction(-1)):
            with pytest.raises(ValueError):
                halving_depth(Fraction(1), sigma)

    def test_iterated(self):
        assert iterated_edge_bound(
            Fraction(6, 5), Fraction(3, 5), 1, EMPTY_PROFILE
        ) == Fraction(103, 25)
        assert iterated_edge_bound(
            Fraction(6, 5), Fraction(3, 5), 1, AnticliqueProfile.of(1)
        ) == Fraction(181, 50)
        assert iterated_edge_bound(
            Fraction(8, 5), Fraction(1, 5), Fraction(3, 10), EMPTY_PROFILE
        ) == Fraction(388, 75)

    def test_iterated_domain(self):
        with pytest.raises(ValueError):
            iterated_edge_bound(Fraction(1, 2), 1, 1, EMPTY_PROFILE)  # g < sigma
        with pytest.raises(ValueError):
            iterated_edge_bound(2, 1, 2, EMPTY_PROFILE)  # r > 1

    def test_iterated_merge_monotone(self):
        # merging two anticliques into one can only lower the bound
        rng = random.Random(17)
        for _ in range(200):
            sizes = [Fraction(rng.randint(0, 8), 4) for _ in range(rng.randint(2, 5))]
            g = Fraction(rng.randint(4, 40), 10)
            sigma = Fraction(rng.randint(1, 10), 10)
            if g < sigma:
                g, sigma = sigma, g
            if g == sigma or sigma == 0:
                continue
            r = Fraction(rng.randint(1, 10), 10)
            i, j = rng.sample(range(len(sizes)), 2)
            merged = [s for idx, s in enumerate(sizes) if idx not in (i, j)]
            merged.append(sizes[i] + sizes[j])
            big = iterated_edge_bound(g, sigma, r, AnticliqueProfile(tuple(sizes)))
            small = iterated_edge_bound(g, sigma, r, AnticliqueProfile(tuple(merged)))
            assert small <= big

    def test_field_inputs(self):
        # g = sqrt(2) lies at halving depth 3 for sigma = 1/5
        g, s, r = sqrt(2), Fraction(1, 5), Fraction(3, 10)
        value = iterated_edge_bound(g, s, r, EMPTY_PROFILE)
        assert value == 2 * g + 1 + s * s + (g / 2) ** 2 + (g / 4) ** 2 + (g / 4 - s) ** 2 / r
        assert value == Fraction(443, 200) + Fraction(5, 3) * sqrt(2)
        assert core_side_edge_bound(g, 1, EMPTY_PROFILE) == Fraction(3, 2) + 2 * sqrt(2)

    def test_core_side(self):
        assert core_side_edge_bound(1, 1, EMPTY_PROFILE) == 3
        assert core_side_edge_bound(1, 1, AnticliqueProfile.of(1)) == Fraction(5, 2)
        assert core_side_edge_bound(0, 1, EMPTY_PROFILE) == Fraction(1, 2)

    def test_core_side_domain(self):
        with pytest.raises(ValueError):
            core_side_edge_bound(1, 0, EMPTY_PROFILE)
        with pytest.raises(ValueError):
            core_side_edge_bound(1, 2, EMPTY_PROFILE)
        with pytest.raises(ValueError, match="b must be non-negative"):
            core_side_edge_bound(-1, 1, EMPTY_PROFILE)


class TestCertifyInterval:
    def test_sharp_quadratic_zero_margins(self):
        # (g - 1/(3s))(s - g) >= 0 on [1/(3s), s] at the boundary sigma
        alt = get_alternative(1)
        s, gamma = alt.sigma, alt.gamma
        coeffs = (-Fraction(1, 3), alt.delta - 2, Fraction(-1))
        res = certify_nonnegative_on_interval(coeffs, gamma, s)
        assert res.passed
        assert res.method == "endpoints+concavity"
        assert res.margin == 0

    def test_exact_margins(self):
        # 1.109 g - 7/9 - (3/8) g^2 on [1.2, 1.6]
        coeffs = (Fraction(-7, 9), Fraction(1109, 1000), Fraction(-3, 8))
        res = certify_nonnegative_on_interval(coeffs, Fraction(6, 5), Fraction(8, 5))
        assert res.passed
        assert res.margin == Fraction(293, 22500)  # value at g = 1.2
        at_hi = Fraction(206, 5625)  # value at g = 1.6
        assert res.margin < at_hi

    def test_endpoint_failure(self):
        res = certify_nonnegative_on_interval((Fraction(-1), Fraction(1)), 0, 2)
        assert not res.passed and res.margin == -1

    def test_convex_needs_grid(self):
        # g^2 - 1 is positive at both endpoints but dips below zero inside
        res = certify_nonnegative_on_interval(
            (Fraction(-1), Fraction(0), Fraction(1)), -2, 2
        )
        assert res.method == "endpoints+vertex"
        assert not res.passed and res.margin == -1

    def test_convex_grid_pass(self):
        res = certify_nonnegative_on_interval(
            (Fraction(1), Fraction(0), Fraction(1)), -1, 1
        )
        assert res.method == "endpoints+vertex" and res.passed

    def test_convex_dip_between_grid_points(self):
        # (g - 1/3)^2 - 10^-12 dips below zero only near 1/3, off any decimal grid
        res = certify_nonnegative_on_interval(
            (Fraction(1, 9) - Fraction(1, 10**12), Fraction(-2, 3), Fraction(1)), 0, 1
        )
        assert res.method == "endpoints+vertex"
        assert not res.passed and res.margin == -Fraction(1, 10**12)
        assert res.at_point == Fraction(1, 3)

    def test_convex_vertex_outside(self):
        # g^2 on [1, 2] has its vertex at 0, so the minimum is at g = 1
        res = certify_nonnegative_on_interval((0, 0, 1), 1, 2)
        assert res.method == "endpoints+vertex"
        assert res.passed and res.margin == 1 and res.at_point == 1

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            certify_nonnegative_on_interval((Fraction(1),), 2, 1)

    def test_cubic_refused(self):
        with pytest.raises(ValueError, match="degree at most 2"):
            certify_nonnegative_on_interval((0, 0, 0, 1), 0, 1)

    def test_single_point_interval(self):
        res = certify_nonnegative_on_interval((Fraction(0), Fraction(1)), 1, 1)
        assert res.passed and res.margin == 1

    def test_convex_minimum_agrees_with_sympy(self):
        # random convex quadratics with Surd and Fraction coefficients and ends;
        # sympy takes the least value over the ends and the root of q' inside
        sp = pytest.importorskip("sympy")
        exact = sympy_exact(sp)
        x = sp.Symbol("x", real=True)
        rng = random.Random(44)

        def reduced(e):
            return sp.expand(sp.radsimp(sp.expand(e)))

        def number(positive=False):
            q = Fraction(rng.randint(1 if positive else -9, 9), rng.randint(1, 6))
            return q if rng.random() < 0.4 else q + Fraction(rng.randint(0, 4), rng.randint(1, 6)) * sqrt(rng.choice((2, 3, 5, 6)))

        inside = 0
        for _ in range(40):
            coeffs = number(), number(), number(positive=True)
            lo, hi = sorted((number(), number()), key=float)
            res = certify_nonnegative_on_interval(coeffs, lo, hi)
            q = sum(exact(c) * x**i for i, c in enumerate(coeffs))
            a, b = exact(lo), exact(hi)
            points = [a, b] + [r for r in sp.solve(sp.diff(q, x), x) if sp.radsimp(r - a) >= 0 >= sp.radsimp(r - b)]
            inside += len(points) == 3
            values = [reduced(q.subs(x, p)) for p in points]
            least = min(values, key=lambda v: sp.N(v, 50))
            assert res.method == "endpoints+vertex"
            assert reduced(exact(res.margin) - least) == 0, coeffs
            assert reduced(q.subs(x, exact(res.at_point)) - least) == 0, coeffs
            assert lo <= res.at_point <= hi and res.passed == (least >= 0)
        assert inside >= 10


class TestObligationTables:
    def test_alternative_3_has_nine_rows_all_exact_pass(self):
        reports = verify_alternative(get_alternative(3))
        assert len(reports) == 9
        for r in reports:
            assert r.verdict == "PASS"
            assert isinstance(r.margin, Fraction)  # rational data, rational margins
            assert r.margin > 0

    def test_alt3_specific_margins(self):
        by_id = {r.obligation_id: r for r in verify_alternative(get_alternative(3))}
        assert by_id["alt3/induction/small-side"].margin == Fraction(943, 27000)
        assert by_id["alt3/base/derivative-sign"].margin == Fraction(73, 2040)
        assert by_id["alt3/base/g[1.2,1.6]"].margin == Fraction(293, 22500)
        assert by_id["alt3/induction/medium-side@b=1"].margin == Fraction(181, 9000)
        assert by_id["alt3/induction/medium-side@b=1.2"].margin == Fraction(493, 22500)

    def test_alt3_margins_are_the_exact_fractions(self):
        margins = [r.margin for r in verify_alternative(get_alternative(3))]
        assert margins == [
            Fraction(293, 22500), Fraction(46193, 25800000), Fraction(9113, 65800000),
            Fraction(77, 37500), Fraction(73, 2040), Fraction(943, 27000),
            Fraction(181, 9000), Fraction(181, 9000), Fraction(493, 22500),
        ]

    def test_tight_irrational_rows_have_margin_exactly_zero(self):
        # these nine rows once passed only within a tolerance of 1e-9
        tight = {
            "basic[s=1/sqrt2]/base-range", "basic[s=1/sqrt2]/mid-range",
            "basic[s=1/sqrt2]/small-side", "alt1/base/nonneg", "alt1/induction/small-side",
            "alt2/base/low", "alt2/base/high", "alt2/induction/small-side-witness",
            "alt2/induction/medium-side",
        }
        rows = [r for r in reports_to_json(verify_all_bounds()) if r["obligation_id"] in tight]
        assert len(rows) == 9
        for r in rows:
            assert (r["verdict"], r["margin_exact"], r["tolerance"], r["margin"]) == ("PASS", "0", "0", 0.0)

    def test_identity_fails_when_delta_moves(self):
        alt = get_alternative(1)
        for shift in (Fraction(1, 10**40), -Fraction(1, 10**40)):
            moved = replace(alt, delta=alt.delta + shift)
            by_id = {r.obligation_id: r for r in verify_alternative(moved)}
            identity = by_id["alt1/base/identity"]
            assert identity.verdict == "FAIL" and identity.margin == -Fraction(1, 10**40)
        exact = {r.obligation_id: r for r in verify_alternative(alt)}["alt1/base/identity"]
        assert exact.verdict == "PASS" and exact.margin == 0

    def test_identity_holds_for_a_rational_sigma(self):
        reports = verify_alternative(alternative_1(sigma=Fraction(3, 2)))
        assert {r.verdict for r in reports} == {"PASS"}
        assert reports[0].margin == 0

    def test_derived_rows_are_the_bound_functions(self, monkeypatch):
        # capture what the table hands to the report builders
        lhs = {}
        interval, point = bounds._interval_report, bounds._point_report

        def capture_interval(oid, params, lhs_poly, rhs_poly, lo, hi):
            lhs[oid] = (lhs_poly, lo, hi)
            return interval(oid, params, lhs_poly, rhs_poly, lo, hi)

        def capture_point(oid, params, lhs_value, rhs_value):
            lhs[oid] = lhs_value
            return point(oid, params, lhs_value, rhs_value)

        monkeypatch.setattr(bounds, "_interval_report", capture_interval)
        monkeypatch.setattr(bounds, "_point_report", capture_point)
        verify_all_bounds()

        # row id -> (bound as a function of g, sigma, halving depth)
        s2, s10 = 1 / sqrt(2), sqrt(10) / 6
        square_sum_2_3 = AnticliqueProfile.of(Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))
        iterated = {
            "basic[s=1/sqrt2]/base-range": (lambda g: basic_edge_bound(g, s2), s2, 1),
            "basic[s=1]/base-range": (lambda g: basic_edge_bound(g, 1), 1, 1),
            "basic[s=1/sqrt2]/mid-range": (lambda g: iterated_edge_bound(g, s2, 1, EMPTY_PROFILE), s2, 2),
            "basic[s=1]/mid-range": (lambda g: iterated_edge_bound(g, 1, 1, EMPTY_PROFILE), 1, 2),
            "alt2/base/high": (lambda g: iterated_edge_bound(g, s10, 1, EMPTY_PROFILE) - 2 * g, s10, 2),
            "alt3/base/g[1.6,2.04]": (
                lambda g: iterated_edge_bound(g, Fraction(1, 5), Fraction(3, 10), square_sum_2_3) - 2 * g,
                Fraction(1, 5),
                4,
            ),
        }

        def core_split(s):
            # the depth-4 row with its first halved side (g/2)^2 moved to the core
            # side of weight s, and the discount weight 1/4.3 moved to 1/(4.3 + s)
            return lambda g: (
                iterated_edge_bound(g, Fraction(1, 5), Fraction(3, 10), square_sum_2_3) - 2 * g
                - (g / 2) ** 2 + core_side_edge_bound(g / 2, s, EMPTY_PROFILE) - g
                + Fraction(2, 3) * (1 / Fraction(43, 10) - 1 / (Fraction(43, 10) + s))
            )

        iterated["alt3/base/g[2.04,2.08]"] = (core_split(Fraction(2, 5)), Fraction(1, 5), 4)
        iterated["alt3/base/g[2.08,2.4]"] = (core_split(Fraction(7, 10)), Fraction(1, 5), 4)

        def medium(b):
            return core_side_edge_bound(b, 1, EMPTY_PROFILE) - 2 * b + Fraction(4, 45)

        for oid, (bound, sigma, depth) in iterated.items():
            poly, lo, hi = lhs[oid]
            for g in (hi, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3):
                assert halving_depth(g, sigma) == depth, (oid, g)
                assert bound(g) == _poly_eval(poly, g), (oid, g)
        poly, lo, hi = lhs["alt3/induction/medium-side"]
        for b in (hi, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3):
            assert medium(b) == _poly_eval(poly, b)
        assert lhs["alt3/induction/medium-side@b=1"] == medium(1)
        assert lhs["alt3/induction/medium-side@b=1.2"] == medium(Fraction(6, 5))

    def test_alt3_least_delta(self):
        # alt3/base/g[2.04,2.08] binds: it holds iff delta >= 2 + 5954167/5369280
        binding, least = ALT3_BINDING_ROW, ALT3_LEAST_DELTA

        def margins(delta):
            reports = verify_alternative(replace(get_alternative(3), delta=delta))
            return {r.obligation_id: r.margin for r in reports}

        at_least = margins(least)
        assert at_least.pop(binding) == 0
        assert all(m >= 0 for m in at_least.values())
        below = margins(least - Fraction(1, 10**40))
        assert below.pop(binding) < 0
        assert all(m >= 0 for m in below.values())
        assert margins(Fraction(3109, 1000))[binding] == Fraction(9113, 65800000)

    def test_alternative_1_passes(self):
        reports = verify_alternative(get_alternative(1))
        assert {r.verdict for r in reports} == {"PASS"}
        ids = {r.obligation_id for r in reports}
        assert "alt1/base/identity" in ids
        assert "alt1/induction/small-side" in ids

    def test_alternative_2_passes(self):
        reports = verify_alternative(get_alternative(2))
        assert {r.verdict for r in reports} == {"PASS"}

    def test_basic_bound_rows_exact_and_enclosed(self):
        reports = verify_basic_bounds()
        assert len(reports) == 6
        assert {r.verdict for r in reports} == {"PASS"}
        # both sigmas are sharp: every margin is exactly 0, the irrational one too
        assert all(r.margin == 0 for r in reports)

    def test_verify_all(self):
        reports = verify_all_bounds()
        assert len(reports) == 24
        assert all(r.verdict == "PASS" for r in reports)

    def test_serialization(self):
        reports = verify_alternative(get_alternative(3))
        text = reports_to_csv(reports)
        assert text.splitlines()[0] == "obligation_id,params,lhs,rhs,margin,verdict"
        assert len(text.splitlines()) == 10
        data = reports_to_json(reports)
        assert data[0]["verdict"] == "PASS"
        assert Fraction(data[0]["margin_exact"]) == reports[0].margin


def sympy_exact(sp):
    """The map from a Surd, Fraction or int to the equal sympy number. A number
    crosses over by its coordinates only, so no Surd arithmetic is shared."""
    from hcs.field import Surd

    roots = [sp.sqrt(m) for m in (1, 2, 3, 6, 5, 10, 15, 30)]  # the basis of Surd.coords
    return lambda x: sum(sp.Rational(c.numerator, c.denominator) * r for c, r in zip(Surd(x).coords, roots))


class TestBoundTableOracle:
    """Each of the 24 margins re-derived in sympy from the row's polynomials and
    ends. On an interval, the minimum of rhs - lhs is taken over the ends and
    the roots of its derivative inside, whatever its shape."""

    def test_every_margin_is_rederived_exactly(self, monkeypatch):
        sp = pytest.importorskip("sympy")
        exact = sympy_exact(sp)
        x = sp.Symbol("x", real=True)

        def poly(coeffs):
            return sum(exact(c) * x**i for i, c in enumerate(coeffs))

        def interval_margin(lhs_poly, rhs_poly, lo, hi):
            q = sp.expand(poly(rhs_poly) - poly(lhs_poly))
            a, b = exact(lo), exact(hi)
            points = [a, b]
            if sp.diff(q, x) != 0:
                points += [r for r in sp.solve(sp.diff(q, x), x) if sp.radsimp(r - a) >= 0 >= sp.radsimp(r - b)]
            values = [sp.radsimp(q.subs(x, p)) for p in points]
            least = values[0]
            for v in values[1:]:
                if sp.radsimp(v - least) < 0:
                    least = v
            return least

        def point_margin(lhs, rhs):
            return exact(rhs) - exact(lhs)

        def identity_margin(lhs_poly, rhs_poly):
            gaps = [abs(exact(a) - exact(b)) for a, b in zip_longest(lhs_poly, rhs_poly, fillvalue=0)]
            return -sp.Max(*gaps)

        rows = []

        def capture(name, derive):
            real = getattr(bounds, name)

            def wrapped(oid, params, *args):
                report = real(oid, params, *args)
                rows.append((report, derive(*args)))
                return report
            monkeypatch.setattr(bounds, name, wrapped)

        capture("_interval_report", interval_margin)
        capture("_point_report", point_margin)
        capture("_identity_report", identity_margin)
        reports = verify_all_bounds()

        assert [r for r, _ in rows] == reports and len(reports) == 24
        for report, derived in rows:
            gap = sp.radsimp(sp.expand(derived - exact(report.margin)))
            assert gap == 0, (report.obligation_id, derived, report.margin)
            assert report.verdict == ("PASS" if sp.radsimp(derived) >= 0 else "FAIL"), report.obligation_id

    def test_alt3_least_delta_is_solved(self, monkeypatch):
        """Each alt3 row that involves delta, solved in sympy for the least delta
        at which it holds. Every rhs is affine in delta and nothing else moves
        with it, so the tables at delta = 3 and 4 give q(x, d) = rhs - lhs. The
        row holds iff d >= d(x), the root of q(x, d) = 0, at each x of its
        interval, so its least delta is the largest d(x) over the ends and the
        critical points; a point row has one root. The largest over the rows
        must be the least delta that test_alt3_least_delta checks in Surd."""
        sp = pytest.importorskip("sympy")
        exact = sympy_exact(sp)
        x, d = sp.symbols("x d", real=True)
        tables = {}  # obligation id -> the report's arguments at delta = 3, then at 4
        for name in ("_interval_report", "_point_report"):
            def wrapped(oid, params, *args, real=getattr(bounds, name)):
                tables.setdefault(oid, []).append(args)
                return real(oid, params, *args)
            monkeypatch.setattr(bounds, name, wrapped)
        for delta in (3, 4):
            verify_alternative(replace(get_alternative(3), delta=Fraction(delta)))

        def poly(coeffs):
            return sum(exact(c) * x**i for i, c in enumerate(coeffs))

        def largest(values):
            best = values[0]
            for v in values[1:]:
                if sp.radsimp(v - best) > 0:
                    best = v
            return best

        least = {}
        for oid, (at3, at4) in tables.items():
            assert at3[:1] + at3[2:] == at4[:1] + at4[2:], oid  # only the rhs moves
            lhs, rhs3, *ends = at3
            sym = poly if ends else exact
            slope = sp.expand(sym(at4[1]) - sym(rhs3))
            if slope == 0:
                continue  # the row does not involve delta
            (root,) = sp.solve(sym(rhs3) + (d - 3) * slope - sym(lhs), d)
            points = [exact(e) for e in ends] or [x]  # a point row's root has no x
            if ends:
                lo, hi = points
                points += [r for r in sp.solve(sp.diff(root, x), x) if sp.radsimp(r - lo) >= 0 >= sp.radsimp(r - hi)]
            assert all(sp.radsimp(slope.subs(x, p)) > 0 for p in points), oid  # q grows with d
            least[oid] = largest([sp.radsimp(root.subs(x, p)) for p in points])
        assert len(tables) == 9 and set(tables) - set(least) == {"alt3/base/derivative-sign"}
        top = largest(list(least.values()))
        assert [oid for oid, v in least.items() if v == top] == [ALT3_BINDING_ROW]
        assert top == exact(ALT3_LEAST_DELTA)


class TestSeparableDensityCheck:
    def test_cycle_eight(self):
        report = separable_density_check(SimpleGraph.cycle(8), 2, get_alternative(3))
        assert report.verdict == "PASS"
        assert report.margin == Fraction(11981, 3000)  # 3.109*3 + 2/3 - 6

    def test_diamond_alt1(self, diamond):
        report = separable_density_check(diamond, 2, get_alternative(1))
        assert report.verdict == "PASS"

    def test_found_graphs_not_applicable(self):
        report = separable_density_check(SimpleGraph.complete(7), 2, get_alternative(3))
        assert report.verdict == "NOT_APPLICABLE"

    def test_empty_graph_not_applicable(self):
        report = separable_density_check(SimpleGraph.empty(0), 2, get_alternative(3))
        assert report.verdict == "NOT_APPLICABLE"

    def test_below_gamma_not_applicable(self):
        report = separable_density_check(SimpleGraph.complete(2), 2, get_alternative(3))
        assert report.verdict == "NOT_APPLICABLE"

    def test_extremal_level_two_alt1(self):
        g = build_extremal(2, 2, 2).graph
        report = separable_density_check(g, 2, get_alternative(1))
        assert report.verdict == "PASS"

    def test_extremal_level_two_alt3_finds_instead(self):
        # at sigma = 0.2 the leaf K4's already qualify, so extraction succeeds
        g = build_extremal(2, 2, 2).graph
        report = separable_density_check(g, 2, get_alternative(3))
        assert report.verdict == "NOT_APPLICABLE"

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            separable_density_check(SimpleGraph.empty(1), 0, get_alternative(3))

    def test_k1_small_trees_as_they_stand(self):
        """Pins a finding, not a wanted verdict: at k = 1 the check fails on
        the 3-vertex path at alts 2 and 3 and on both 4-vertex trees at alt 3."""
        star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        expected = {
            ("P3", 2): ("FAIL", -Fraction(7, 3) + Fraction(11, 15) * sqrt(10)),
            ("P3", 3): ("FAIL", Fraction(-173, 1500)),
            ("P4", 2): ("PASS", None),
            ("P4", 3): ("FAIL", Fraction(-19, 3000)),
            ("K13", 2): ("PASS", None),
            ("K13", 3): ("FAIL", Fraction(-19, 3000)),
            ("P2", 2): ("NOT_APPLICABLE", None),
            ("P2", 3): ("NOT_APPLICABLE", None),
        }
        graphs = {"P2": SimpleGraph.path(2), "P3": SimpleGraph.path(3), "P4": SimpleGraph.path(4), "K13": star}
        expected.update({(name, 1): ("PASS", None) for name in ("P3", "P4", "K13")})
        for (name, alt), (verdict, margin) in expected.items():
            report = separable_density_check(graphs[name], 1, get_alternative(alt))
            assert report.verdict == verdict, (name, alt)
            if margin is not None:
                assert report.margin == margin, (name, alt)

    @pytest.mark.parametrize("k", [0, 1.5, True])
    def test_k_is_checked_before_the_empty_graph_exit(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            separable_density_check(SimpleGraph.empty(0), k, get_alternative(3))
