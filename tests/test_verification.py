import math

import numpy as np
import pytest
from scipy.special import erfc

from utmqp.config import SolverConfig
from utmqp.counterexamples import heat_counterexample, kdv_counterexample_airy
from utmqp.errors import InvalidParameterError
from utmqp.profiles import (
    ProblemSpec,
    builtin_profile,
    separable_forcing,
    zero_forcing,
)
from utmqp.solvers import solve
from utmqp.verification import (
    boundary_recovery,
    decay_supremum,
    energy_trace,
    fd_weights,
    heat_oracle,
    kdv_fd_oracle,
    pde_residual,
)

TIGHT = SolverConfig(tol=1e-12)


def exp_decay_problem(pde):
    return ProblemSpec(
        pde,
        builtin_profile("exp_decay", a=1.0),
        builtin_profile("exp_of_t", a=-1.0),
        zero_forcing(),
    )


def bump_problem(pde):
    return ProblemSpec(
        pde,
        builtin_profile("bump", a=1.0, b=3.0),
        builtin_profile("zero"),
        zero_forcing(),
    )


class TestFdWeights:
    def test_centered_second_derivative(self):
        w = fd_weights(2, np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(w, [1.0, -2.0, 1.0])

    def test_one_sided_first_derivative_is_exact_on_cubics(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        w = fd_weights(1, grid, x0=0.0)
        for poly in (lambda x: x**2, lambda x: x**3 - 2 * x):
            vals = poly(grid)
            h = 1e-7
            exact = (poly(h) - poly(-h)) / (2 * h)
            assert float(np.dot(w, vals)) == pytest.approx(exact, abs=1e-6)

    def test_rejects_short_stencils(self):
        with pytest.raises(InvalidParameterError):
            fd_weights(3, np.array([0.0, 1.0]))


class TestPdeResidual:
    def test_heat_solver_field(self):
        p = exp_decay_problem("heat")
        field = lambda x, t: solve(p, x, t, TIGHT).value
        assert abs(pde_residual(field, "heat", 1.0, 1.0, 1e-3)) <= 1e-5

    def test_zero_field(self):
        assert pde_residual(lambda x, t: 0.0, "heat", 1.0, 1.0, 1e-3) == 0.0
        assert pde_residual(lambda x, t: 0.0, "kdv", 1.0, 1.0, 1e-3) == 0.0

    def test_kdv_counterexample_field(self):
        res = pde_residual(kdv_counterexample_airy, "kdv", 1.0, 0.5, 1e-3)
        assert abs(res) <= 1e-4

    def test_convergence_order_until_noise_floor(self):
        # closed-form field: halving h must show second-order decay
        field = lambda x, t: heat_counterexample(1, x, t)
        hs = [4e-2, 2e-2, 1e-2]
        res = [abs(pde_residual(field, "heat", 1.0, 1.0, h)) for h in hs]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        assert all(o >= 1.8 for o in orders)

    def test_forcing_is_subtracted(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        p = ProblemSpec("heat", builtin_profile("zero"), builtin_profile("zero"), f)
        field = lambda x, t: solve(p, x, t, TIGHT).value
        res = pde_residual(
            field, "heat", 1.0, 0.5, 1e-3, forcing=lambda x, t: float(f(x, t))
        )
        assert abs(res) <= 1e-5

    def test_stencil_domain_guard(self):
        with pytest.raises(InvalidParameterError):
            pde_residual(lambda x, t: 0.0, "kdv", 1e-4, 1.0, 1e-3)


class TestBoundaryRecovery:
    def test_heat_step_probe(self):
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        rep = boundary_recovery(p, t_points=(1.0,), x_points=(0.5, 1.0))
        assert rep.passed
        # the finest boundary probe must be within erfc-distance of 1
        finest = rep.measured["boundary_errors"][0][-1]
        assert finest <= 1e-3
        assert 1.0 - erfc(1e-3 / 2.0) <= 1e-3  # the limit deficit itself

    def test_zero_data_recovers_exactly(self):
        p = ProblemSpec(
            "kdv", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        rep = boundary_recovery(p, t_points=(0.5,), x_points=(1.0,))
        assert rep.passed
        assert rep.measured["boundary_final_error"] == 0.0

    def test_kdv_compatible_errors_shrink(self):
        p = exp_decay_problem("kdv")
        rep = boundary_recovery(p, t_points=(0.5,), x_points=(0.5, 1.0))
        assert rep.passed
        for row in rep.measured["boundary_errors"]:
            assert row[-1] <= row[0] / 2.0  # at least 2x shrink over probes


class TestDecaySupremum:
    def test_kdv_weighted_decay(self):
        p = exp_decay_problem("kdv")
        out = decay_supremum(p, 0, 0, 2, T0=1.0, x_grid=(5.0, 10.0, 20.0))
        assert out["finite"] and out["decreasing"]

    def test_heat_derivative_bounded_down_to_small_t(self):
        p = exp_decay_problem("heat")
        out = decay_supremum(p, 1, 0, 1, T0=1.0, x_grid=(5.0, 10.0, 20.0))
        assert out["finite"] and out["decreasing"]

    def test_zero_field(self):
        p = ProblemSpec(
            "heat", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        out = decay_supremum(p, 0, 0, 2, T0=1.0, x_grid=(5.0, 10.0))
        assert out["overall"] == 0.0


class TestHeatOracle:
    def test_step_datum_is_erfc(self):
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        for x, t in [(0.5, 1.0), (1.5, 0.7)]:
            assert heat_oracle(p, x, t) == pytest.approx(
                erfc(x / (2 * math.sqrt(t))), abs=1e-9
            )

    def test_zero_data(self):
        p = ProblemSpec(
            "heat", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        assert heat_oracle(p, 1.0, 1.0) == 0.0

    def test_exp_datum_closed_form_at_small_t(self):
        # the kernel's peak at y = x is narrower than any fixed panel in
        # y; the oracle must still resolve it
        p = ProblemSpec(
            "heat",
            builtin_profile("exp_decay", a=1.0),
            builtin_profile("zero"),
            zero_forcing(),
        )
        for x, t in [(5.0, 1e-4), (8.0, 1e-3), (20.0, 1e-3)]:
            r = 2.0 * math.sqrt(t)
            exact = 0.5 * math.exp(t) * (
                math.exp(-x) * erfc((2.0 * t - x) / r)
                - math.exp(x) * erfc((x + 2.0 * t) / r)
            )
            assert heat_oracle(p, x, t) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("t", [1e-2, 0.5, 1.0])
    @pytest.mark.parametrize("x", [1.0, 1e-2, 1e-4, 1e-5, 1e-6])
    def test_boundary_part_near_the_boundary(self, x, t):
        # g0 = e^{-t} has the closed form e^{-t} Re[e^{ix} erfc(x/2sqrt(t)
        # + i sqrt(t))]; the boundary integrand's layer at its lower limit
        # is ~x/2sqrt(t) wide
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("exp_of_t", a=-1.0),
            zero_forcing(),
        )
        z = x / (2.0 * math.sqrt(t)) + 1j * math.sqrt(t)
        exact = math.exp(-t) * (np.exp(1j * x) * erfc(z)).real
        assert heat_oracle(p, x, t) == pytest.approx(exact, abs=1e-13)

    def test_boundary_kernel_is_first_family_member(self):
        # x/sqrt(4 pi s^3) e^{-x^2/(4 s)} coincides with the first
        # non-uniqueness member (1/sqrt(4 pi) = 1/(2 sqrt(pi)))
        for x, s in [(1.0, 0.5), (0.7, 1.2)]:
            kernel = x / math.sqrt(4 * math.pi * s**3) * math.exp(-x * x / (4 * s))
            assert kernel == pytest.approx(heat_counterexample(1, x, s), rel=1e-14)

    def test_forced_problem_against_solver(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("exp_of_t", a=-1.0)
        )
        p = ProblemSpec("heat", builtin_profile("zero"), builtin_profile("zero"), f)
        for x, t in [(0.8, 0.6), (1.5, 1.1)]:
            assert heat_oracle(p, x, t) == pytest.approx(
                solve(p, x, t).value, abs=1e-7
            )


class TestKdvFdOracle:
    def test_zero_data_gives_zero_grid(self):
        p = ProblemSpec(
            "kdv", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        fd = kdv_fd_oracle(p, L=10.0, nx=100, nt=50, T=0.5)
        assert np.max(np.abs(fd.values)) == 0.0

    def test_discrete_energy_monotone_for_homogeneous_problem(self):
        fd = kdv_fd_oracle(bump_problem("kdv"), L=20.0, nx=800, nt=400, T=1.0)
        assert fd.energy_monotone

    def test_agreement_with_contour_solution(self):
        p = exp_decay_problem("kdv")
        fd = kdv_fd_oracle(p, L=30.0, nx=1500, nt=1000, T=1.0)
        s = solve(p, 1.0, 0.5)
        rel = abs(s.value - fd(1.0, 0.5)) / abs(fd(1.0, 0.5))
        assert rel <= 1e-2
        # the Richardson estimate confirms the grid solution dominates
        # the comparison error budget
        assert fd.richardson_error > 10.0 * s.error_estimate

    def test_error_against_contour_solution_shrinks_under_refinement(self):
        p = bump_problem("kdv")
        pts = [(0.5, 0.2), (1.0, 0.6), (2.0, 1.0), (3.0, 0.6)]
        exact = {pt: solve(p, *pt).value for pt in pts}
        errors = []
        for nx, nt in ((3200, 1600), (6400, 3200)):
            fd = kdv_fd_oracle(p, L=16.0, nx=nx, nt=nt, T=1.1)
            errors.append(max(abs(fd(*pt) - exact[pt]) for pt in pts))
        assert errors[1] <= 0.5 * errors[0]

    def test_heat_variant(self):
        p = exp_decay_problem("heat")
        fd = kdv_fd_oracle(p, L=25.0, nx=1250, nt=800, T=1.0)
        for x, t in [(0.5, 0.5), (1.0, 1.0)]:
            assert abs(fd(x, t) - solve(p, x, t).value) <= 1e-3


class TestTwoOracleTriangle:
    def test_heat_triangle(self):
        p = exp_decay_problem("heat")
        fd = kdv_fd_oracle(p, L=25.0, nx=1250, nt=800, T=1.0)
        pts = [(0.5, 0.5), (1.0, 0.8)]
        for x, t in pts:
            utm = solve(p, x, t)
            image = heat_oracle(p, x, t)
            assert abs(utm.value - image) <= 1e-6
            assert abs(utm.value - fd(x, t)) <= 1e-3

    def test_uniqueness_smoke(self):
        # two independent routes to the same compatible problem differ by
        # less than the sum of their error budgets
        p = exp_decay_problem("heat")
        oracle_tol = 1e-10
        for x, t in [(0.6, 0.4), (1.2, 1.0)]:
            s = solve(p, x, t)
            image = heat_oracle(p, x, t, tol=oracle_tol)
            assert abs(s.value - image) <= s.error_estimate + 10 * oracle_tol


class TestEnergyTrace:
    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_rejects_boundary_data_and_forcing(self, pde):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        u0, zero = builtin_profile("bump", a=1.0, b=3.0), builtin_profile("zero")
        for p in (
            ProblemSpec(pde, u0, builtin_profile("exp_of_t", a=-1.0), zero_forcing()),
            ProblemSpec(pde, u0, zero, f),
        ):
            with pytest.raises(InvalidParameterError, match="zero g0"):
                energy_trace(p, T=1.0, n_t=2)


class TestZeroFieldEnergy:
    def test_energy_and_flux_identically_zero(self):
        zero = builtin_profile("zero")
        p = ProblemSpec("kdv", zero, zero, zero_forcing())
        tr = energy_trace(p, T=1.0, n_t=3, t_start=0.2)
        assert all(e == 0.0 for e in tr.energies)
        assert all(f == 0.0 for f in tr.fluxes)
        assert tr.monotone


class TestSmallTimeStrengthening:
    def test_supremum_does_not_blow_up_toward_t_zero(self):
        # extending the t-grid from [0.1, 1] down to 1e-3 must not blow
        # up the weighted supremum (uniformity of the decay near t = 0)
        p = exp_decay_problem("kdv")
        restricted = decay_supremum(p, 0, 0, 2, T0=1.0, x_grid=(5.0, 10.0),
                                    t_min=0.1, n_t=4)
        extended = decay_supremum(p, 0, 0, 2, T0=1.0, x_grid=(5.0, 10.0),
                                  t_min=1e-3, n_t=6)
        assert extended["overall"] <= 5.0 * restricted["overall"] + 1e-12
