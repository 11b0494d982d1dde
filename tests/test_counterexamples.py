import math

import numpy as np
import pytest
from scipy.special import erfc

from utmqp.counterexamples import (
    heat_counterexample,
    heat_counterexample_field,
    hypothesis_violation_report,
    kdv_counterexample,
    kdv_counterexample_airy,
    recipe_generate,
)
from utmqp.errors import InvalidParameterError, RecipeDegenerateError
from utmqp.profiles import builtin_profile


class TestHeatFamily:
    def test_first_member_closed_form(self):
        expected = math.exp(-0.25) / (2.0 * math.sqrt(math.pi))
        assert heat_counterexample(1, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.21969, abs=1e-5)

    def test_vanishing_time_limit(self):
        assert abs(heat_counterexample(1, 1.0, 1e-3)) < 1e-50

    def test_vanishing_space_limit(self):
        assert abs(heat_counterexample(1, 1e-3, 1.0)) <= 1e-3

    def test_second_member_against_difference_quotient(self):
        h = 1e-4
        fd = (
            heat_counterexample(1, 1.0, 1.0 + h)
            - heat_counterexample(1, 1.0, 1.0 - h)
        ) / (2.0 * h)
        assert heat_counterexample(2, 1.0, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_third_member_against_difference_of_second(self):
        h = 1e-4
        fd = (
            heat_counterexample(2, 0.7, 0.8 + h)
            - heat_counterexample(2, 0.7, 0.8 - h)
        ) / (2.0 * h)
        assert heat_counterexample(3, 0.7, 0.8) == pytest.approx(fd, abs=1e-5)

    def test_not_identically_zero(self):
        grid = [
            abs(heat_counterexample(1, x, t))
            for x in (0.5, 1.0, 2.0)
            for t in (0.5, 1.0)
        ]
        assert max(grid) > 1e-3

    def test_pde_residual(self):
        # closed-form evaluations carry no quadrature noise, so a small
        # step keeps the difference-quotient truncation below 1e-6
        h = 1e-4
        for x, t in [(1.0, 1.0), (0.6, 0.4)]:
            ut = (
                heat_counterexample(1, x, t + h) - heat_counterexample(1, x, t - h)
            ) / (2 * h)
            uxx = (
                heat_counterexample(1, x + h, t)
                - 2 * heat_counterexample(1, x, t)
                + heat_counterexample(1, x - h, t)
            ) / (h * h)
            assert abs(ut - uxx) <= 1e-6

    def test_antiderivative_consistency(self):
        # the family's first member is the t-derivative of the step-datum
        # solution erfc(x / (2 sqrt t)), so its t-integral telescopes
        x, t0, t1 = 1.0, 0.3, 1.2
        nodes, weights = np.polynomial.legendre.leggauss(200)
        ts = 0.5 * (t1 - t0) * (nodes + 1.0) + t0
        vals = np.array([heat_counterexample(1, x, t) for t in ts])
        integral = 0.5 * (t1 - t0) * float(np.dot(weights, vals))
        expected = erfc(x / (2 * math.sqrt(t1))) - erfc(x / (2 * math.sqrt(t0)))
        assert integral == pytest.approx(expected, abs=1e-6)

    def test_order_validation(self):
        with pytest.raises(InvalidParameterError):
            heat_counterexample(0, 1.0, 1.0)


class TestKdvFamily:
    def test_eps_independence(self):
        a = kdv_counterexample(1, 1.0, 1.0, eps=0.5)
        b = kdv_counterexample(1, 1.0, 1.0, eps=1.0)
        assert abs(a - b) <= 1e-8

    def test_airy_route_self_test(self):
        # the closed form z Ai(z)/t with z = x (3t)^{-1/3} must agree
        # with the line-integral route wherever we compare
        for x, t in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.7), (0.7, 1.5), (1.5, 0.4)]:
            quad = kdv_counterexample(1, x, t, eps=0.8)
            assert kdv_counterexample_airy(x, t) == pytest.approx(quad, abs=1e-8)

    def test_default_path_uses_verified_accelerator(self):
        got = kdv_counterexample(1, 1.3, 0.9)
        assert got == pytest.approx(kdv_counterexample(1, 1.3, 0.9, eps=1.0), abs=1e-8)

    def test_not_identically_zero(self):
        grid = [
            abs(kdv_counterexample(1, x, t))
            for x in (0.5, 1.0, 2.0)
            for t in (0.5, 1.0)
        ]
        assert max(grid) > 1e-3

    def test_homogeneous_limit_probes(self):
        # the limits vanish; at finite probe points the field is already
        # small (the t-probe sits at 1e-4 where the Airy factor has
        # collapsed; at 1e-3 the field is still ~6e-3)
        assert abs(kdv_counterexample(1, 1e-3, 1.0)) <= 1e-3
        assert abs(kdv_counterexample(1, 1.0, 1e-4)) <= 1e-3

    def test_time_probe_sequence_decreases(self):
        vals = [abs(kdv_counterexample(1, 1.0, t)) for t in (1e-2, 1e-3, 1e-4)]
        assert vals[0] > vals[1] > vals[2]

    def test_pde_residual_of_first_member(self):
        h = 1e-3
        u = kdv_counterexample_airy
        for x, t in [(1.0, 0.5), (1.5, 1.0)]:
            ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
            uxxx = (
                u(x + 2 * h, t) - 2 * u(x + h, t) + 2 * u(x - h, t) - u(x - 2 * h, t)
            ) / (2 * h**3)
            assert abs(ut + uxxx) <= 1e-4

    def test_second_member_against_difference_quotient(self):
        h = 1e-3
        fd = (
            kdv_counterexample(1, 1.0, 1.0 + h) - kdv_counterexample(1, 1.0, 1.0 - h)
        ) / (2 * h)
        assert kdv_counterexample(2, 1.0, 1.0, eps=1.0) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("x", [1e-3, 0.05, 1.0])
    def test_second_member_default_height_at_small_t(self, x):
        # at small t the integrand spreads to |lambda| ~ t^{-1/3}; the
        # default line height must follow it for the quadrature to settle
        t, h = 1e-3, 1e-6
        got = kdv_counterexample(2, x, t)
        assert got == pytest.approx(
            kdv_counterexample(2, x, t, eps=t ** (-1.0 / 3.0)), abs=1e-9
        )
        fd = (kdv_counterexample_airy(x, t + h) - kdv_counterexample_airy(x, t - h)) / (
            2 * h
        )
        assert got == pytest.approx(fd, rel=1e-5)


class TestRecipe:
    def test_heat_step_reproduces_family(self):
        field = recipe_generate("heat", builtin_profile("constant", c=1.0), 1)
        expected = math.exp(-0.25) / (2.0 * math.sqrt(math.pi))
        assert field(1.0, 1.0) == pytest.approx(expected, abs=1e-6)

    def test_heat_second_order(self):
        field = recipe_generate("heat", builtin_profile("constant", c=1.0), 2)
        assert field(1.0, 1.0) == pytest.approx(
            heat_counterexample(2, 1.0, 1.0), abs=1e-6
        )

    def test_kdv_step_reproduces_family(self):
        field = recipe_generate("kdv", builtin_profile("constant", c=1.0), 1)
        assert field(1.0, 1.0) == pytest.approx(
            kdv_counterexample(1, 1.0, 1.0), abs=1e-6
        )

    def test_degenerate_for_compatible_corner(self):
        with pytest.raises(RecipeDegenerateError):
            recipe_generate("heat", builtin_profile("zero"), 1)
        with pytest.raises(RecipeDegenerateError):
            recipe_generate("kdv", builtin_profile("sin_of_t", omega0=1.0), 1)

    def test_general_step_datum(self):
        # a non-constant incompatible datum still yields a PDE solution
        # with vanishing initial limit, but its boundary limit is g0'(t):
        # only a constant step turns the construction into a counterexample
        g0 = builtin_profile("exp_of_t", a=-0.5)
        field = recipe_generate("heat", g0, 1)
        h = 1e-3
        x, t = 1.0, 0.8
        ut = (field(x, t + h) - field(x, t - h)) / (2 * h)
        uxx = (field(x + h, t) - 2 * field(x, t) + field(x - h, t)) / (h * h)
        assert abs(ut - uxx) <= 1e-5
        assert field(1e-3, 1.0) == pytest.approx(
            float(g0.derivative(1, 1.0)), abs=1e-2
        )
        assert abs(field(1.0, 1e-3)) <= 1e-6  # zero initial limit


class TestViolationReport:
    def test_heat_first_member_exponent(self):
        # analytic check first: E(t) = sqrt(2)/(8 sqrt(pi)) t^{-3/2}
        analytic = math.sqrt(2.0) / (8.0 * math.sqrt(math.pi))
        for t in (0.05, 0.2):
            xs = np.linspace(1e-6, 40 * math.sqrt(t), 300001)
            brute = np.trapezoid(
                np.array([heat_counterexample(1, x, t) for x in xs]) ** 2, xs
            )
            assert brute == pytest.approx(analytic * t**-1.5, rel=1e-6)
        rep = hypothesis_violation_report(heat_counterexample_field(1), T=0.5)
        assert rep.violated
        assert rep.exponent == pytest.approx(-1.5, abs=0.05)

    def test_zero_field(self):
        rep = hypothesis_violation_report(lambda x, t: 0.0, T=0.5)
        assert not rep.violated
        assert rep.summary() == "no violation detected"

    def test_second_member_is_more_singular(self):
        rep = hypothesis_violation_report(heat_counterexample_field(2), T=0.5)
        assert rep.exponent < -1.5
