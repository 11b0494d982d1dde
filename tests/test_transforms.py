import dataclasses

import numpy as np
import pytest

from utmqp.errors import AccuracyError, OutOfDomainError, SingularArgumentError
from utmqp.profiles import (
    builtin_profile,
    combine_profiles,
    separable_forcing,
    zero_forcing,
)
from utmqp.transforms import (
    forcing_tail_expansion,
    forcing_transform,
    grouped_forcing_tail_time_transform,
    grouped_forcing_time_transform,
    grouped_time_transform,
    half_line_fourier,
    tail_expansion,
)


def strip_closed_forms(profile):
    """Clone a profile with its transform hooks removed, forcing the
    quadrature paths (used to cross-validate closed forms)."""
    return dataclasses.replace(
        profile, transform=None, grouped_time_transform=None, transform_upper_ok=False
    )


class TestHalfLineFourier:
    def test_exp_decay_closed_form_real_lambda(self):
        p = builtin_profile("exp_decay", a=1.0)
        lams = np.linspace(-8.0, 8.0, 17)
        expected = 1.0 / (1.0 + 1j * lams)
        assert np.allclose(half_line_fourier(p, lams.astype(complex)), expected,
                           atol=1e-12)

    def test_at_zero_equals_profile_mass(self):
        p = builtin_profile("exp_decay", a=1.0)
        assert half_line_fourier(p, 0j) == pytest.approx(1.0)

    def test_zero_profile(self):
        p = builtin_profile("zero")
        assert half_line_fourier(p, 1.0 - 2j) == 0

    @pytest.mark.parametrize(
        "name,params",
        [
            ("exp_decay", {"a": 1.3}),
            ("gaussian", {"a": 1.0}),
            ("x_times_gaussian", {"a": 0.8}),
        ],
    )
    def test_closed_form_matches_quadrature_on_grid(self, name, params):
        p = builtin_profile(name, **params)
        bare = strip_closed_forms(p)
        grid = np.concatenate(
            [
                np.linspace(-12.0, 12.0, 25),
                np.linspace(-6.0, 6.0, 25) - 0.7j,
            ]
        )
        closed = half_line_fourier(p, grid)
        quad = half_line_fourier(bare, grid, tol=1e-12)
        assert np.max(np.abs(closed - quad)) <= 1e-10

    def test_upper_half_plane_without_continuation_is_rejected(self):
        bare = strip_closed_forms(builtin_profile("exp_decay", a=1.0))
        with pytest.raises(OutOfDomainError):
            half_line_fourier(bare, 1.0 + 0.5j)

    def test_unconverged_quadrature_raises(self):
        # the 512- and 1024-node sums differ by 7.6 here, so neither may
        # be returned as the transform
        bare = dataclasses.replace(builtin_profile("bump", a=0.0, b=40.0), transform=None)
        with pytest.raises(AccuracyError, match="half_line_fourier"):
            half_line_fourier(bare, 200.0, tol=1e-9)

    def test_compact_support_transform_continues_upward(self):
        p = builtin_profile("bump", a=1.0, b=3.0)
        val = half_line_fourier(p, 2.0 + 1.0j)
        # brute-force oracle on the support
        ys = np.linspace(1.0, 3.0, 20001)
        ref = np.trapezoid(np.exp(-1j * (2.0 + 1.0j) * ys) * p(ys), ys)
        assert val == pytest.approx(ref, abs=1e-8)

    def test_conjugate_symmetry_for_real_data(self):
        for name, params in [("exp_decay", {"a": 1.0}), ("gaussian", {"a": 2.0})]:
            p = builtin_profile(name, **params)
            lams = np.linspace(0.3, 9.0, 15)
            plus = half_line_fourier(p, lams.astype(complex))
            minus = half_line_fourier(p, -lams.astype(complex))
            assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12

    def test_discrete_cauchy_riemann_residual(self):
        # analyticity probe in the lower half-plane: d/dx F = -i d/dy F
        p = builtin_profile("exp_decay", a=1.0)
        lam0 = 1.2 - 0.8j
        h = 1e-3
        dx = (half_line_fourier(p, lam0 + h) - half_line_fourier(p, lam0 - h)) / (2 * h)
        dy = (half_line_fourier(p, lam0 + 1j * h) - half_line_fourier(p, lam0 - 1j * h)) / (2j * h)
        assert abs(dx - dy) <= 1e-6


class TestTailExpansion:
    def test_one_term_exp_decay(self):
        p = builtin_profile("exp_decay", a=1.0)
        lam = -10j  # lower half-plane point
        sigma1 = tail_expansion(p, 1, lam)
        assert sigma1 == pytest.approx(0.1)  # u0(0)/(i lam) = 1/10
        remainder = half_line_fourier(p, lam) - sigma1
        assert remainder == pytest.approx(-1.0 / 110.0)

    def test_zero_profile(self):
        assert tail_expansion(builtin_profile("zero"), 4, 3.0 + 0j) == 0

    def test_singular_at_origin(self):
        p = builtin_profile("exp_decay", a=1.0)
        with pytest.raises(SingularArgumentError):
            tail_expansion(p, 3, 0j)

    @pytest.mark.parametrize("terms", [2, 4, 6])
    def test_remainder_decay_order(self, terms):
        # |lam^{M+1} (uhat - sigma_M)| stays bounded as |lam| grows
        p = builtin_profile("exp_decay", a=1.0)
        bounds = []
        for radius in (10.0, 20.0, 40.0):
            lam = np.array([radius, -radius], dtype=complex)
            rem = half_line_fourier(p, lam) - tail_expansion(p, terms, lam)
            bounds.append(np.max(np.abs(lam ** (terms + 1) * rem)))
        assert max(bounds) <= 2.0 * bounds[0] + 1e-9


class TestTimeTransform:
    def test_constant_datum_closed_form(self):
        g0 = builtin_profile("constant", c=1.0)
        for w in (0.5 + 0j, 2.0 - 1.0j, 0.3j):
            t = 1.3
            expected = (1.0 - np.exp(-w * t)) / w
            got = grouped_time_transform(g0, w, t)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_w_zero_gives_plain_integral(self):
        g0 = builtin_profile("constant", c=1.0)
        assert grouped_time_transform(g0, 0j, 0.8) == pytest.approx(0.8)

    def test_grouped_bound(self):
        # |e^{-w t} gtilde| <= int_0^t |g0| whenever Re w >= 0
        g0 = builtin_profile("sin_of_t", omega0=3.0)
        t = 2.0
        bound = np.trapezoid(np.abs(g0(np.linspace(0, t, 4001))), np.linspace(0, t, 4001))
        for w in (0.0 + 0j, 5.0 + 0j, 1.0 + 20j, 100.0 - 7j):
            val = grouped_time_transform(g0, w, t)
            assert abs(val) <= bound + 1e-9

    def test_generic_quadrature_path_matches_closed_form(self):
        g0 = builtin_profile("exp_of_t", a=-1.0)
        bare = dataclasses.replace(g0, grouped_time_transform=None)
        for w in (0.2 + 0j, 4.0 + 3j, 60.0 + 0j, 0j):
            a = grouped_time_transform(g0, w, 1.1)
            b = grouped_time_transform(bare, w, 1.1, tol=1e-12)
            assert abs(a - b) <= 1e-10

    def test_t_zero(self):
        g0 = builtin_profile("constant", c=3.0)
        assert grouped_time_transform(g0, 1.0 + 1j, 0.0) == 0

    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_exp_decay_closed_form_near_its_pole(self, a):
        # within 1e-8 of w = a the closed form switches to its limit
        g0 = builtin_profile("exp_decay", a=a)
        bare = dataclasses.replace(g0, grouped_time_transform=None)
        for w in (a + 5e-9, a - 5e-9, a + 5e-9j):
            for t in (0.5, 2.0):
                got = grouped_time_transform(g0, w + 0j, t)
                ref = grouped_time_transform(bare, w + 0j, t, tol=1e-13)
                assert abs(got - ref) <= 1e-13 * abs(ref)


class TestForcingTransforms:
    def test_zero_forcing(self):
        f = zero_forcing()
        assert forcing_transform(f, 1.0 - 0.5j, 1.0) == 0
        assert grouped_forcing_time_transform(f, 1.0 - 0.5j, 2.0 + 0j, 1.0) == 0

    def test_separable_closed_form(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        lam, w, t = 1.5 + 0j, 0.7 + 0.4j, 0.9
        fhat = forcing_transform(f, lam, t)
        grouped = grouped_forcing_time_transform(f, lam, w, t)
        assert fhat == pytest.approx(1.0 / (1.0 + 1j * lam))
        assert grouped == pytest.approx(fhat * (1.0 - np.exp(-w * t)) / w)

    def test_generic_paths_match_separable_closed_form(self):
        xp = builtin_profile("exp_decay", a=1.0)
        tp = builtin_profile("exp_of_t", a=-1.0)
        f = separable_forcing(xp, tp)
        bare = separable_forcing(
            strip_closed_forms(xp), dataclasses.replace(tp, grouped_time_transform=None)
        )
        lam = np.array([1.5 + 0j, -2.0 - 0.5j, 0.3 - 1.0j])
        w = np.array([0.7 + 0.4j, 4.0 + 0j, 20.0 - 3.0j])
        t = 0.9
        got = forcing_transform(bare, lam, t, tol=1e-12)
        assert np.allclose(got, forcing_transform(f, lam, t), rtol=0, atol=1e-10)
        got = grouped_forcing_time_transform(bare, lam, w, t, tol=1e-12)
        expected = grouped_forcing_time_transform(f, lam, w, t)
        assert np.allclose(got, expected, rtol=0, atol=1e-10)

    def test_nondecaying_forcing_is_rejected(self):
        constant = builtin_profile("constant", c=1.0)
        with pytest.raises(OutOfDomainError):
            forcing_transform(separable_forcing(constant, constant), 1.0 - 0.5j, 0.5)

    def test_empty_time_integral(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        assert grouped_forcing_time_transform(f, 1.0 + 0j, 2.0 + 0j, 0.0) == 0

    def test_tail_expansion_leading_term(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        lam = 5.0 + 0j
        h1 = forcing_tail_expansion(f, 1, lam, t=0.7)
        assert h1 == pytest.approx(1.0 / (1j * lam))  # f(0, t) = 1

    def test_zero_forcing_tail(self):
        assert forcing_tail_expansion(zero_forcing(), 3, 2.0 + 0j, 1.0) == 0

    def test_tail_remainder_boundedness(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("exp_of_t", a=-1.0)
        )
        terms, t = 4, 0.8
        bounds = []
        for radius in (10.0, 20.0, 40.0):
            lam = np.array([radius, -radius], dtype=complex)
            rem = forcing_transform(f, lam, t) - forcing_tail_expansion(f, terms, lam, t)
            bounds.append(np.max(np.abs(lam ** (terms + 1) * rem)))
        assert max(bounds) <= 2.0 * bounds[0] + 1e-9

    def test_grouped_tail_time_transform_matches_componentwise(self):
        xp = builtin_profile("exp_decay", a=2.0)
        lam = np.array([3.0 + 0j, -5.0 + 1j])
        w = np.array([1.0 + 0j, 2.0 + 0.5j])
        t = 0.9
        exp_t = builtin_profile("exp_of_t", a=-1.0)
        gauss_t = builtin_profile("gaussian", a=1.0)  # no closed time transform
        for tp in (exp_t, gauss_t):
            f = separable_forcing(xp, tp)
            got = grouped_forcing_tail_time_transform(f, 3, lam, w, t)
            expected = np.zeros_like(lam)
            for j in range(1, 4):
                # the trace d^{j-1}f/dx^{j-1}(0, t) as a time profile
                cj = float(xp.derivative(j - 1, 0.0))
                trace = combine_profiles(cj, tp, 0.0, builtin_profile("zero"))
                expected += grouped_time_transform(trace, w, t) / (1j * lam) ** j
            assert np.allclose(got, expected, rtol=0, atol=1e-12)

