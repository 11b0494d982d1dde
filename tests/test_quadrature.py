import math

import numpy as np
import pytest
from scipy.optimize import brentq

from utmqp.config import SolverConfig
from utmqp.contours import (
    Contour,
    LineSegment,
    Ray,
    heat_contour,
    indented_line,
    ray_pair,
    real_line,
)
from utmqp.errors import AccuracyError, InvalidContourError, TruncationError
from utmqp.quadrature import (
    Integrand,
    integrate,
    power_law_envelope,
    ray_truncation,
)

TOL = 1e-10


def gaussian_integrand():
    return Integrand(
        evaluator=lambda lam: np.exp(-lam * lam),
        decay_envelope=lambda s: math.exp(-s * s + 2 * s),  # loose but valid
    )


class TestBasicIntegrals:
    def test_gaussian_over_real_line(self):
        res = integrate(gaussian_integrand(), real_line(), TOL)
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert res.error_estimate <= 1e-9
        assert res.evaluations > 0

    def test_empty_contour(self):
        res = integrate(gaussian_integrand(), Contour(()), TOL)
        assert res.value == 0
        assert res.evaluations == 0

    def test_step_datum_kernel_on_heat_contour(self):
        # int_{wedge} e^{i lam x - lam^2 t} lam dlam at (x,t) = (1,1)
        # equals i pi * [x/(2 sqrt(pi) t^{3/2}) e^{-x^2/4t}] since the
        # entire integrand collapses the contour to the real line, where
        # the integral is a differentiated Gaussian.
        x = t = 1.0
        g = Integrand(
            evaluator=lambda lam: np.exp(1j * lam * x - lam * lam * t) * lam,
            phase_density=lambda lam: x + 2 * t * np.abs(lam),
        )
        res = integrate(g, heat_contour(), TOL)
        target = 1j * math.pi * (
            x / (2.0 * math.sqrt(math.pi) * t**1.5) * math.exp(-x * x / (4 * t))
        )
        assert abs(target - 1j * 0.690) < 1e-3  # magnitude sanity pin
        assert res.value == pytest.approx(target, abs=1e-8)


class TestInvariances:
    def test_orientation_antisymmetry(self):
        seg = LineSegment(-1.0 + 0j, 2.0 + 1j)
        back = LineSegment(seg.start, seg.end, orientation=-1)
        g = Integrand(evaluator=lambda lam: np.exp(-lam * lam) * (lam + 2.0))
        fwd = integrate(g, Contour((seg,)), TOL)
        bwd = integrate(g, Contour((back,)), TOL)
        assert fwd.value == -bwd.value

    def test_additivity_under_splitting(self):
        g = Integrand(evaluator=lambda lam: np.cos(3.0 * lam) * np.exp(1j * lam))
        whole = Contour((LineSegment(0j, 2.0 + 1j),))
        mid = 0.7 * (2.0 + 1j)
        parts = Contour((LineSegment(0j, mid), LineSegment(mid, 2.0 + 1j)))
        a = integrate(g, whole, TOL)
        b = integrate(g, parts, TOL)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_cauchy_invariance_of_heat_boundary_term(self):
        # grouped boundary integrand of the heat representation: entire in
        # lambda and bounded toward the real axis, so tilting the wedge
        # must not change the integral.
        x = t = 1.0

        def evaluator(lam):
            lam = np.asarray(lam, dtype=complex)
            grouped = (1.0 - np.exp(-lam * lam * t)) / np.where(lam == 0, 1.0, lam * lam)
            return 2j * lam * np.exp(1j * lam * x) * grouped

        g = Integrand(
            evaluator=evaluator, phase_density=lambda lam: x + 2 * t * np.abs(lam)
        )
        base = integrate(g, heat_contour(), TOL)
        for delta in (math.pi / 32, math.pi / 16):
            tilted_wedge = ray_pair(3 * math.pi / 4 + delta, math.pi / 4 - delta)
            tilted = integrate(g, tilted_wedge, TOL)
            assert abs(tilted.value - base.value) <= 10 * TOL

    def test_indented_line_height_independence(self):
        # first member of the cubic non-uniqueness family: the integral
        # over Im lambda = eps must not depend on eps
        x, t = 1.0, 1.0

        def evaluator(lam):
            lam = np.asarray(lam, dtype=complex)
            return lam * lam * np.exp(1j * lam * x + 1j * lam**3 * t)

        g = Integrand(
            evaluator=evaluator,
            phase_density=lambda lam: x + 3 * t * np.abs(lam) ** 2,
        )
        lo = integrate(g, indented_line(0.5), TOL)
        hi = integrate(g, indented_line(1.0), TOL)
        assert abs(lo.value - hi.value) <= 10 * TOL


class TestRayTruncation:
    def test_exponential_envelope_matches_tail_inequality(self):
        rate = math.sin(math.pi / 3)  # x = 1 on the cubic wedge
        tol = 1e-8
        g = Integrand(
            evaluator=lambda lam: np.exp(-rate * np.abs(lam)),
            decay_envelope=lambda s: math.exp(-rate * s),
        )
        ray = Ray(0j, math.pi / 3)
        r = ray_truncation(g, ray, tol)
        # independent oracle: solve e^{-rate R}/rate = tol/10
        r_expected = brentq(
            lambda R: math.exp(-rate * R) / rate - tol / 10.0, 1.0, 100.0
        )
        assert abs(r - r_expected) < 0.5
        assert 20.0 < r < 30.0

    def test_truncation_radius_monotone_in_decay_rate(self):
        def radius(rate):
            g = Integrand(
                evaluator=lambda lam: np.exp(-rate * np.abs(lam)),
                decay_envelope=lambda s, rate=rate: math.exp(-rate * s),
            )
            return ray_truncation(g, Ray(0j, 0.25), 1e-8)

        assert radius(10.0) < radius(1.0)

    def test_envelope_says_nothing_inside_its_first_probe(self):
        # a Gaussian that is below a roundoff-like floor at every probe
        # radius, so the power law fitted there misses it entirely
        probes = (4.0, 8.0, 16.0, 32.0)
        ray = Ray(1.0 + 0j, 0.0)
        g = Integrand(lambda lam: np.exp(-3.0 * (lam - 1.0) ** 2) + 1e-15 / lam**2)
        g.decay_envelope = power_law_envelope(g, ray, probes)
        assert g.decay_envelope is not None
        assert ray_truncation(g, ray, TOL) >= probes[0]
        value = integrate(g, Contour((ray,)), TOL).value
        assert abs(value - 0.5 * math.sqrt(math.pi / 3.0)) <= 1e-8

    def test_pure_oscillation_without_decay_fails(self):
        g = Integrand(evaluator=lambda lam: np.exp(1j * np.abs(lam)))
        with pytest.raises(TruncationError):
            ray_truncation(g, Ray(0j, 0.1), 1e-8, r_max=1e4)


class TestFailureModes:
    def test_budget_exhaustion_carries_best_estimate(self):
        cfg = SolverConfig(max_panels=8)
        g = Integrand(evaluator=lambda lam: np.cos(200.0 * lam.real))
        with pytest.raises(AccuracyError) as excinfo:
            integrate(g, Contour((LineSegment(0j, 1.0 + 0j),)), 1e-14, cfg)
        assert excinfo.value.best is not None
        assert excinfo.value.best.evaluations > 0

    def test_nonfinite_integrand_is_reported(self):
        g = Integrand(evaluator=lambda lam: np.full(lam.shape, np.inf + 0j))
        with pytest.raises(InvalidContourError):
            integrate(g, Contour((LineSegment(0j, 1.0 + 0j),)), TOL)


class TestDeterminism:
    def test_repeated_integration_is_bit_identical(self):
        x, t = 2.0, 0.3

        def evaluator(lam):
            return np.exp(1j * lam * x - lam * lam * t) / (1.0 + 1j * lam)

        g = Integrand(
            evaluator=evaluator, phase_density=lambda lam: x + 2 * t * np.abs(lam)
        )
        a = integrate(g, real_line(), TOL)
        b = integrate(g, real_line(), TOL)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.evaluations == b.evaluations
