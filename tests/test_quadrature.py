import cmath
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
    _DE_LEVELS,
    _ENVELOPE_PROBES,
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

    def test_estimate_is_never_zero(self):
        # K15 and G7 agree bit for bit on e^lam over [0, 1]; the estimate
        # keeps the roundoff floor of the panel's mass
        g = Integrand(evaluator=lambda lam: np.exp(lam))
        res = integrate(g, Contour((LineSegment(0j, 1.0 + 0j),)), TOL)
        assert 0.0 < res.error_estimate < 1e-15
        assert abs(res.value - (math.e - 1.0)) <= res.error_estimate

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
        ray = Ray(1.0 + 0j, 0.0)
        g = Integrand(lambda lam: np.exp(-3.0 * (lam - 1.0) ** 2) + 1e-15 / lam**2)
        g.decay_envelope = power_law_envelope(g, ray)
        assert g.decay_envelope is not None
        assert ray_truncation(g, ray, TOL) >= _ENVELOPE_PROBES[0]
        value = integrate(g, Contour((ray,)), TOL).value
        assert abs(value - 0.5 * math.sqrt(math.pi / 3.0)) <= 1e-8

    def test_pure_oscillation_without_decay_fails(self):
        g = Integrand(evaluator=lambda lam: np.exp(1j * np.abs(lam)))
        with pytest.raises(TruncationError):
            ray_truncation(g, Ray(0j, 0.1), 1e-8, r_max=1e4)


def decaying(*rays):
    return Contour(rays, decaying=True)


class TestDoubleExponentialRays:
    @pytest.mark.parametrize("angle", [0.3, math.pi / 4, -0.5])
    def test_exponential_on_tilted_ray(self, angle):
        # int_0^{inf e^{i angle}} e^{-a lam} dlam = 1/a wherever it decays
        a = 2.0 - 1.0j
        g = Integrand(lambda lam: np.exp(-a * lam))
        res = integrate(g, decaying(Ray(0j, angle)), 1e-12)
        assert abs(res.value - 1.0 / a) <= 1e-13

    def test_slow_oscillatory_decay_from_a_unit_point(self):
        # int_1^{1 + inf e^{i pi/4}} e^{i lam x} dlam = i e^{ix} / x: at
        # x = 1e-3 the ray must reach |lam| ~ 5e4 before the cutoff
        x = 1e-3
        g = Integrand(lambda lam: np.exp(1j * lam * x))
        res = integrate(g, decaying(Ray(1.0 + 0j, math.pi / 4)), 1e-10)
        assert abs(res.value - 1j * cmath.exp(1j * x) / x) <= 1e-10

    def test_gaussian_on_tilted_ray_pair(self):
        # the real line's Gaussian integral on rays tilted by pi/8, with
        # the inbound ray's orientation
        g = Integrand(lambda lam: np.exp(-lam * lam))
        wedge = ray_pair(math.pi - math.pi / 8, math.pi / 8)
        res = integrate(g, decaying(*wedge), 1e-12)
        assert abs(res.value - math.sqrt(math.pi)) <= 1e-13

    def test_cutoff_probe_landing_on_a_zero(self):
        # the integrand vanishes at the first probe s = e^{-1} (u = 0); a
        # single probe there would cut the ray at |lam| ~ 0.37
        c = math.exp(-1.0)
        g = Integrand(lambda lam: (lam - c) * np.exp(-lam / 10.0))
        res = integrate(g, decaying(Ray(0j, 0.0)), 1e-10)
        assert abs(res.value - (100.0 - 10.0 * c)) <= 1e-10

    def test_cutoff_waits_for_a_rising_integrand(self):
        # eps lam e^{-lam / L} sits far below the cutoff threshold at the
        # first probes and peaks only near |lam| ~ L; its integral is eps L^2
        eps, scale = 1e-20, 1e6
        g = Integrand(lambda lam: eps * lam * np.exp(-lam / scale))
        res = integrate(g, decaying(Ray(0j, 0.0)), 1e-10)
        assert abs(res.value - eps * scale**2) <= 1e-10

    def test_non_decaying_integrand_finds_no_cutoff(self):
        g = Integrand(lambda lam: np.exp(1j * lam))
        with pytest.raises(TruncationError):
            integrate(g, decaying(Ray(0j, 0.0)), 1e-8)

    def test_level_cap_carries_best_estimate(self):
        # a pole 1e-3 off the ray: the step never resolves it
        g = Integrand(lambda lam: np.exp(-lam) / (lam - (1.0 + 1e-3j)))
        with pytest.raises(AccuracyError, match=f"{_DE_LEVELS} halvings") as info:
            integrate(g, decaying(Ray(0j, 0.0)), 1e-12)
        best = info.value.best
        assert best is not None and best.evaluations > 0
        assert best.error_estimate > 1e-12

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("omega", [1.0, 10.0, 30.0])
    def test_estimate_is_positive_and_covers_the_error(self, omega, tol):
        # int_0^inf e^{-lam} cos(omega lam) dlam = 1 / (1 + omega^2)
        g = Integrand(lambda lam: np.exp(-lam) * np.cos(omega * lam))
        res = integrate(g, decaying(Ray(0j, 0.0)), tol)
        error = abs(res.value - 1.0 / (1.0 + omega * omega))
        assert 0.0 < res.error_estimate <= tol
        assert error <= res.error_estimate

    def test_estimate_covers_the_cut_off_tail(self):
        # at a loose tol the cutoff drops more than the halving difference
        # sees; int_0^inf e^{-lam} / (lam + 1) dlam = e E1(1), the Gompertz
        # constant
        g = Integrand(lambda lam: np.exp(-lam) / (lam + 1.0))
        res = integrate(g, decaying(Ray(0j, 0.0)), 1e-3)
        assert abs(res.value - 0.5963473623231940743) <= res.error_estimate

    def test_only_marked_contours_use_the_rule(self):
        # the same ray, marked or not, gives the same integral by two rules
        g = Integrand(
            lambda lam: np.exp(-lam * lam),
            decay_envelope=lambda s: math.exp(-s * s + 2 * s),
        )
        ray = Ray(0j, 0.1)
        de = integrate(g, decaying(ray), 1e-12)
        gk = integrate(g, Contour((ray,)), 1e-12)
        assert abs(de.value - gk.value) <= 1e-12
        assert de.evaluations != gk.evaluations


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
