import math
import re

import numpy as np
import pytest
from scipy.special import erfc

from utmqp.errors import InvalidParameterError
from utmqp.profiles import ProblemSpec, builtin_profile, zero_forcing
from utmqp.reductions import (
    RobinSpec,
    oblique_phi_check,
    robin_map,
    robin_phi_check,
    robin_uniqueness_demo,
)
from utmqp.verification import heat_oracle, pde_residual


def erfc_field(x, t):
    return float(erfc(x / (2.0 * math.sqrt(t))))


def exp_decay_problem():
    return ProblemSpec(
        "heat",
        builtin_profile("exp_decay", a=1.0),
        builtin_profile("exp_of_t", a=-1.0),
        zero_forcing(),
    )


class TestRobinMap:
    def test_identity_operator(self):
        r = RobinSpec(1.0, 0.0, 0.0)
        assert robin_map(erfc_field, r, 1.0, 1.0) == erfc_field(1.0, 1.0)

    def test_pure_slope_on_erfc_field(self):
        # d/dx erfc(x/(2 sqrt t)) = -e^{-x^2/4t}/sqrt(pi t)
        r = RobinSpec(0.0, 1.0, 0.0)
        got = robin_map(erfc_field, r, 1.0, 1.0)
        expected = -math.exp(-0.25) / math.sqrt(math.pi)
        assert got == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(-0.4394, abs=1e-4)

    def test_mapped_field_still_solves_the_pde(self):
        # constant-coefficient boundary operators commute with the PDE
        r = RobinSpec(1.0, 1.0, 0.0)
        derivs = {
            "x": lambda x, t: -math.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t)
        }
        mapped = lambda x, t: robin_map(erfc_field, r, x, t, derivatives=derivs)
        assert abs(pde_residual(mapped, "heat", 1.0, 0.5, 1e-3)) <= 1e-5

    def test_linearity_in_the_field(self):
        r = RobinSpec(0.7, -1.2, 0.4)
        f = lambda x, t: math.sin(x) * math.exp(-t)
        g = lambda x, t: x * x + t
        a, b = 2.0, -0.3
        combo = lambda x, t: a * f(x, t) + b * g(x, t)
        lhs = robin_map(combo, r, 0.8, 0.9)
        rhs = a * robin_map(f, r, 0.8, 0.9) + b * robin_map(g, r, 0.8, 0.9)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exact_derivative_hooks(self):
        r = RobinSpec(0.0, 1.0, 0.0)
        derivs = {"x": lambda x, t: -math.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t)}
        got = robin_map(erfc_field, r, 1.0, 1.0, derivatives=derivs)
        assert got == pytest.approx(-math.exp(-0.25) / math.sqrt(math.pi), abs=1e-14)

    def test_all_zero_operator_rejected(self):
        with pytest.raises(InvalidParameterError):
            RobinSpec(0.0, 0.0, 0.0)


class TestRobinPhi:
    def test_regular_branch(self):
        rep = robin_phi_check(1.0, 2.0)
        assert rep.branch == "regular"
        assert rep.passed and rep.max_abs_phi <= 1e-12

    def test_degenerate_branch(self):
        rep = robin_phi_check(1.0, 1.0)
        assert rep.branch == "degenerate-algebraic"
        assert rep.passed

    def test_dirichlet_branch(self):
        rep = robin_phi_check(1.0, 0.0)
        assert rep.branch == "covered-by-dirichlet"
        assert rep.passed

    def test_parameter_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.05, 10.0, size=2)
            assert robin_phi_check(a, b).passed


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "check,args,message",
        [
            (robin_phi_check, (math.nan, 1.0), "A must be finite"),
            (robin_phi_check, (1.0, math.inf), "B must be finite"),
            (robin_phi_check, (1.0, 1e-200), "1 - A^2/B^2 must be finite"),
            (oblique_phi_check, (1.0, 1.0, math.nan), "C must be finite"),
            (oblique_phi_check, (math.inf, 1.0, 1.0), "A must be finite"),
            (oblique_phi_check, (1.0, 1e-200, 1.0), "B*B underflows"),
        ],
    )
    def test_rejected_naming_the_parameter(self, check, args, message):
        with pytest.raises(InvalidParameterError, match="^" + re.escape(message)):
            check(*args)


class TestObliquePhi:
    def test_unit_parameters(self):
        rep = oblique_phi_check(1.0, 1.0, 1.0)
        assert rep.passed and rep.max_abs_phi <= 1e-12

    def test_generic_parameters(self):
        assert oblique_phi_check(2.0, 1.0, 3.0).passed

    def test_characteristic_roots_reported(self):
        rep = oblique_phi_check(1.0, 1.0, 1.0)
        assert rep.detail == "characteristic roots 1.61803, -0.618034"

    @pytest.mark.parametrize("A,B,C", [(1.0, 1.0, 1e-200), (1.0, 1e-150, 1.0)])
    def test_roots_finite_at_extreme_scales(self, A, B, C):
        # the unscaled discriminant overflows here and printed inf, -inf
        printed = oblique_phi_check(A, B, C).detail.split("roots ")[1].split(", ")
        assert all(math.isfinite(float(r)) for r in printed)
        from utmqp.reductions import _oblique_roots

        b = B * B / C - 2.0 * A
        for r in _oblique_roots(A, B, C):
            # r^2 + b r - A^2 = 0, divided by r so no term overflows
            scale = abs(r) + abs(b) + A * A / abs(r)
            assert abs(r + b - A * A / r) <= 1e-12 * scale

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            oblique_phi_check(1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            oblique_phi_check(-1.0, 1.0, 1.0)

    def test_parameter_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = rng.uniform(0.05, 10.0, size=3)
            assert oblique_phi_check(a, b, c).passed


class TestUniquenessDemo:
    def test_cross_oracle_pair(self):
        rep = robin_uniqueness_demo(
            exp_decay_problem(),
            RobinSpec(1.0, 1.0, 0.0),
            xs=(0.5, 1.0, 1.5),
            ts=(0.5, 1.0),
        )
        assert rep.passed
        assert rep.max_abs_delta <= 2e-6

    def test_identical_fields_give_zero(self):
        p = exp_decay_problem()
        field = lambda x, t: heat_oracle(p, x, t)
        r = RobinSpec(1.0, 2.0, 0.0)
        w1 = robin_map(field, r, 1.0, 1.0)
        w2 = robin_map(field, r, 1.0, 1.0)
        assert w1 - w2 == 0.0

    def test_injected_fault_is_detected(self):
        p = exp_decay_problem()
        rep = robin_uniqueness_demo(
            p,
            RobinSpec(1.0, 1.0, 0.0),
            xs=(0.5, 1.0),
            ts=(0.5,),
            oracle=lambda x, t: heat_oracle(p, x, t) + 1e-3,
        )
        assert not rep.passed
        assert rep.max_abs_delta == pytest.approx(1e-3, rel=0.1)

    def test_oblique_operator_demo(self):
        rep = robin_uniqueness_demo(
            exp_decay_problem(),
            RobinSpec(1.0, 1.0, 0.5),
            xs=(0.8,),
            ts=(0.8,),
            threshold=5e-6,
        )
        assert rep.passed

    def test_requires_heat_problem(self):
        p = ProblemSpec(
            "kdv", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        with pytest.raises(InvalidParameterError):
            robin_uniqueness_demo(p, RobinSpec(1.0, 1.0, 0.0))
