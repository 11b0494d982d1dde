import dataclasses
import math

import numpy as np
import pytest
from scipy.special import airy, erfc

from utmqp.config import DEFAULT_CONFIG, SolverConfig
from utmqp.errors import (
    AccuracyError,
    InvalidParameterError,
    OutOfDomainError,
    TruncationError,
    UnsupportedOrderError,
    UtmqpError,
)
from conftest import combine_profiles
from utmqp.profiles import (
    ProblemSpec,
    builtin_profile,
    separable_forcing,
    zero_forcing,
)
from utmqp import solvers, transforms
from utmqp.solvers import (
    _ALPHA,
    _ALPHA_SQ,
    _FAMILIES,
    _alpha_combo,
    solve,
    solve_derivative,
    solve_grid,
)

TIGHT = SolverConfig(tol=1e-12)


def zero_problem(pde):
    return ProblemSpec(
        pde, builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
    )


def exp_decay_problem(pde):
    return ProblemSpec(
        pde,
        builtin_profile("exp_decay", a=1.0),
        builtin_profile("exp_of_t", a=-1.0),
        zero_forcing(),
    )


def free_space_heat_terms(u0, x, t, Y=60.0, n=400):
    """(int_0^Y K(x - y) u0(y) dy, int_0^Y K(x + y) u0(y) dy), K the heat
    kernel: the initial line term and the image that the heat wedge term
    subtracts, each over 2 pi."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    ys = 0.5 * Y * (nodes + 1.0)
    K = lambda z: np.exp(-z * z / (4 * t)) / math.sqrt(4 * math.pi * t)
    w = 0.5 * Y * weights * u0(ys)
    return float(np.dot(w, K(x - ys))), float(np.dot(w, K(x + ys)))


def airy_line_term(u0, x, t, Y=60.0, panels=600, n=32):
    """The kdv initial real-line term as the Airy-kernel convolution of the
    zero-extended datum, 2 pi int_0^Y (3t)^{-1/3} Ai((x - y)/(3t)^{1/3})
    u0(y) dy, by composite Gauss-Legendre in y: no contours involved
    (Holmer, Comm. PDE 31, 2006)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(0.0, Y, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    ys = (0.5 * (b - a) * (nodes + 1.0) + a).ravel()
    ws = (0.5 * (b - a) * weights).ravel()
    s = (3.0 * t) ** (1.0 / 3.0)
    return 2.0 * math.pi * float(np.dot(ws, airy((x - ys) / s)[0] * u0(ys))) / s


class TestCubeRoots:
    def test_algebra(self):
        a = _ALPHA
        assert abs(a**3 - 1.0) <= 1e-15
        assert abs(1.0 + a + a * a) <= 1e-15
        assert abs(_ALPHA_SQ - a * a) <= 1e-15

    def test_rotated_argument_stays_in_lower_half_plane(self):
        # the cubic wedge map's domain guard: a lam with a rotated argument
        # in the upper half-plane (alpha * 1) is refused; lam = i and both
        # wedge rays map into the closed lower half-plane
        combo = _alpha_combo(np.exp, check_domain=True)
        with pytest.raises(OutOfDomainError):
            combo(np.array([1.0 + 0j]))
        rays = 3.0 * np.exp(1j * np.array([math.pi / 3, 2 * math.pi / 3]))
        for lam in (np.array([1j]), rays):
            assert np.all(np.isfinite(combo(lam)))


class TestDispersion:
    def test_cubic_rate(self):
        w = _FAMILIES["kdv"].w
        lam = 2.0 + 1.0j
        assert w(lam) == pytest.approx(-1j * lam**3)
        # Re w = 3 xi^2 eta - eta^3 for lam = xi + i eta
        xi, eta = lam.real, lam.imag
        assert w(lam).real == pytest.approx(3 * xi**2 * eta - eta**3)

    def test_heat_rate(self):
        lam = 1.0 - 2.0j
        assert _FAMILIES["heat"].w(lam) == pytest.approx(lam * lam)

    def test_rate_vanishes_on_own_wedge(self):
        w = _FAMILIES["kdv"].w
        lam = 3.0 * np.exp(1j * math.pi / 3)
        assert abs(w(lam).real) < 1e-12 * abs(w(lam))


class TestZeroData:
    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_all_terms_vanish(self, pde):
        p = zero_problem(pde)
        s = solve(p, 1.0, 0.5)
        assert s.term_breakdown == (0j, 0j, 0j, 0j, 0j)
        assert s.value == 0.0
        assert s.error_estimate == 0.0


class TestHeatSolver:
    def test_step_datum_reproduces_erfc(self):
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        for x, t in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            s = solve(p, x, t)
            assert s.value == pytest.approx(erfc(x / (2.0 * math.sqrt(t))), abs=1e-6)

    def test_forced_problem_matches_steady_state_split(self):
        # u_t = u_xx + e^{-x}, zero data.  With phi = 1 - e^{-x} the
        # shifted field solves the plain heat problem with datum e^{-x}-1,
        # giving the closed comparison below (erf from the constant part).
        from scipy.special import erf

        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        p = ProblemSpec("heat", builtin_profile("zero"), builtin_profile("zero"), f)

        def exact(x, t):
            free, image = free_space_heat_terms(lambda y: np.exp(-y), x, t)
            return free - image - erf(x / (2.0 * math.sqrt(t))) + 1.0 - math.exp(-x)

        for x, t in [(1.0, 0.5), (0.5, 1.0)]:
            assert solve(p, x, t).value == pytest.approx(exact(x, t), abs=1e-8)

    def test_forced_time_derivative_error_estimate_is_honest(self):
        # u_t of a forced solve at large x against the tol-1e-12 solve; a
        # ray cut inside a fitted envelope's first probe once lost 4e-5 of
        # u_t here
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        p = exp_decay_problem("heat")
        p = ProblemSpec("heat", p.u0, p.g0, f)
        x, t = 7.408515658802797, 0.64294887756002
        got = solve_derivative(p, 0, 1, x, t)
        ref = solve_derivative(p, 0, 1, x, t, TIGHT)
        assert abs(got.value - ref.value) <= got.error_estimate + ref.error_estimate

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    @pytest.mark.parametrize(
        "x,t,k,m", [(1.5, 0.4, 0, 0), (5.0, 1.0, 0, 0), (0.5, 0.05, 1, 0), (2.0, 0.7, 0, 1)]
    )
    def test_generic_time_factor_matches_closed_form(self, pde, x, t, k, m):
        # the same forcing with its time factor's closed form stripped: the
        # forcing kernel then uses the generic time rule
        tp = builtin_profile("exp_of_t", a=-1.0)
        bare = dataclasses.replace(tp, grouped_time_transform=None)
        zero = builtin_profile("zero")
        xp = builtin_profile("exp_decay", a=1.0)
        closed = ProblemSpec(pde, zero, zero, separable_forcing(xp, tp))
        generic = ProblemSpec(pde, zero, zero, separable_forcing(xp, bare))
        a = solve_derivative(closed, k, m, x, t)
        b = solve_derivative(generic, k, m, x, t)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

    def test_nondecaying_forcing_is_rejected(self):
        # a space factor without a half-line transform is refused when the
        # problem is built, not at solve time
        constant = builtin_profile("constant", c=1.0)
        f = separable_forcing(constant, constant)
        zero = builtin_profile("zero")
        for pde in ("heat", "kdv"):
            with pytest.raises(InvalidParameterError):
                ProblemSpec(pde, zero, zero, f)


class TestForcingKernel:
    @pytest.mark.parametrize("term", ["_forcing_real_term", "_forcing_wedge_term"])
    def test_time_transform_once_per_node(self, monkeypatch, term):
        # the wedge map leaves w unchanged, so a forcing term evaluates the
        # grouped time transform of its time factor once per node; counted
        # where the solver binds it and where the transforms module does
        points = []
        original = transforms.grouped_time_transform

        def counted(g, w, t, tol=None):
            points.append(np.size(w))
            return original(g, w, t, tol)

        for module in (solvers, transforms):
            monkeypatch.setattr(module, "grouped_time_transform", counted)
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("gaussian", a=1.0)
        )
        zero = builtin_profile("zero")
        p = ProblemSpec("kdv", zero, zero, f)
        res = getattr(solvers, term)(p, 0, 0, 1.5, 0.5, DEFAULT_CONFIG)
        assert res.evaluations > 0
        assert sum(points) <= 1.1 * res.evaluations


class TestBumpForcing:
    """A bump space factor keeps the forcing terms on the untilted tails;
    there the whole integrand is integrated, with nothing subtracted."""

    @staticmethod
    def problem(a, b, tp):
        zero = builtin_profile("zero")
        xp = builtin_profile("bump", a=a, b=b)
        return ProblemSpec("heat", zero, zero, separable_forcing(xp, tp))

    @pytest.mark.parametrize(
        "tp,x,t",
        [
            (("constant", {"c": 1.0}), 1.0, 0.5),
            (("constant", {"c": 1.0}), 0.3, 2.0),
            (("gaussian", {"a": 1.0}), 1.0, 0.5),
        ],
    )
    def test_heat_matches_oracle(self, tp, x, t):
        # subtracting the large-lambda expansion, these were up to 2e-10
        # off with estimates near 5e-13
        from utmqp.verification import heat_oracle

        p = self.problem(1.0, 3.0, builtin_profile(tp[0], **tp[1]))
        s = solve(p, x, t)
        assert abs(s.value - heat_oracle(p, x, t, tol=1e-13)) <= s.error_estimate + 1e-12

    @pytest.mark.parametrize("x", [3.01, 3.1, 4.0])
    def test_heat_past_the_support_matches_oracle(self, x):
        # past its support (x > b) the bump stays on the untilted tails:
        # on tilted tails its transform, computed apart from e^{i lam x},
        # overflowed at x = 3.01 and the solve raised InvalidContourError
        from utmqp.verification import heat_oracle

        p = self.problem(1.0, 3.0, builtin_profile("constant", c=1.0))
        s = solve(p, x, 0.5)
        assert abs(s.value - heat_oracle(p, x, 0.5, tol=1e-13)) <= s.error_estimate + 1e-12

    def test_heat_slope_is_refused_or_within_budget(self):
        # Richardson extrapolation of central differences of heat_oracle
        # gives u_x = 0.02899708449; the subtracted route returned
        # 0.0289727 with an estimate of 1e-12
        p = self.problem(0.5, 2.0, builtin_profile("constant", c=1.0))
        try:
            s = solve_derivative(p, 1, 0, 1.0, 0.5)
        except UtmqpError as exc:
            assert str(exc).startswith("_forcing_real_term at (x, t) = (1.0, 0.5)")
        else:
            assert abs(s.value - 0.02899708449) <= s.error_estimate + 1e-11


class TestKdvSolver:
    def test_boundary_recovery(self):
        p = ProblemSpec(
            "kdv",
            builtin_profile("zero"),
            builtin_profile("exp_of_t", a=-1.0),
            zero_forcing(),
        )
        for t in (0.5, 1.0):
            s = solve(p, 1e-3, t)
            assert abs(s.value - math.exp(-t)) <= 1e-2

    def test_initial_recovery(self):
        p = ProblemSpec(
            "kdv",
            builtin_profile("gaussian", a=1.0),
            builtin_profile("exp_of_t", a=-1.0),  # u0(0) = g0(0) = 1
            zero_forcing(),
        )
        for x in (0.5, 1.0, 2.0):
            s = solve(p, x, 1e-4)
            assert abs(s.value - math.exp(-x * x)) <= 1e-3

    def test_step_datum_matches_independent_line_integral(self):
        # independent evaluation of the same solution over a horizontal
        # line in the upper half-plane (no wedge machinery involved)
        import scipy.integrate as si

        p = ProblemSpec(
            "kdv",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )

        def reference(x, t, eps=1.0):
            f = lambda u: np.exp(
                1j * ((u + 1j * eps) * x + (u + 1j * eps) ** 3 * t)
            ) / (u + 1j * eps)
            re = si.quad(lambda u: f(u).real, -40, 40, limit=800)[0]
            im = si.quad(lambda u: f(u).imag, -40, 40, limit=800)[0]
            return (-3.0 / (2.0 * math.pi * 1j) * (re + 1j * im)).real

        for x, t in [(0.5, 0.5), (1.0, 1.0)]:
            assert solve(p, x, t).value == pytest.approx(
                reference(x, t), abs=1e-8
            )


class TestDerivatives:
    def test_order_zero_reproduces_solve(self):
        p = exp_decay_problem("kdv")
        a = solve(p, 1.0, 0.5)
        b = solve_derivative(p, 0, 0, 1.0, 0.5)
        assert a.value == b.value

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_exact_residual_vanishes(self, pde):
        p = exp_decay_problem(pde)
        order = 2 if pde == "heat" else 3
        sign = -1.0 if pde == "heat" else 1.0
        ut = solve_derivative(p, 0, 1, 1.0, 0.5).value
        ux = solve_derivative(p, order, 0, 1.0, 0.5).value
        assert abs(ut + sign * ux) <= 1e-6

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_exact_time_derivative_matches_centered_difference(self, pde):
        # u0, g0 and f all nonzero, so the one time-derivative rule is
        # checked on each of the five terms: the data terms' (-w) factor and
        # d/dt G = g(t) - w G on the boundary and both forcing terms
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("sin_of_t", omega0=1.0)
        )
        q = exp_decay_problem(pde)
        p = ProblemSpec(pde, q.u0, q.g0, f)
        x, t, h = 1.0, 1.0, 1e-4
        exact = solve_derivative(p, 0, 1, x, t, TIGHT).term_breakdown
        ahead = solve(p, x, t + h, TIGHT).term_breakdown
        behind = solve(p, x, t - h, TIGHT).term_breakdown
        assert all(term != 0 for term in exact)
        for d, a, b in zip(exact, ahead, behind):
            assert abs(d - (a - b) / (2.0 * h)) <= 1e-7

    def test_kdv_slope_is_linear_near_the_boundary(self):
        # u_x(x) - u_x(0+) = x u_xx(0+) + O(x^2): the gap to the x = 1e-8
        # slope over x is the same at every x near the boundary
        zero = builtin_profile("zero")
        p = ProblemSpec(
            "kdv", builtin_profile("x_times_gaussian", a=1.0), zero, zero_forcing()
        )
        edge = solve_derivative(p, 1, 0, 1e-8, 0.8).value
        gaps = [
            (solve_derivative(p, 1, 0, x, 0.8).value - edge) / x
            for x in (1e-2, 1e-3, 1e-4)
        ]
        assert max(gaps) - min(gaps) <= 0.01 * abs(gaps[0])

    def test_space_derivative_matches_centered_difference(self):
        p = exp_decay_problem("kdv")
        h = 1e-3
        exact = solve_derivative(p, 1, 0, 1.0, 0.5, TIGHT).value
        fd = (
            solve(p, 1.0 + h, 0.5, TIGHT).value
            - solve(p, 1.0 - h, 0.5, TIGHT).value
        ) / (2.0 * h)
        assert exact == pytest.approx(fd, abs=1e-6)

    def test_order_overflow_is_rejected(self):
        p = exp_decay_problem("kdv")
        with pytest.raises(UnsupportedOrderError):
            solve_derivative(p, 6, 1, 1.0, 0.5)

    def test_second_time_derivative_needs_zero_forcing(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        p = ProblemSpec("heat", builtin_profile("zero"), builtin_profile("zero"), f)
        with pytest.raises(UnsupportedOrderError):
            solve_derivative(p, 0, 2, 1.0, 0.5)

    def test_second_time_derivative_without_forcing(self):
        # for the step problem, d^2/dt^2 of the solution is the second
        # member of the non-uniqueness family, known in closed form
        from utmqp.counterexamples import heat_counterexample

        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        exact = solve_derivative(p, 0, 2, 1.0, 1.0, TIGHT).value
        assert exact == pytest.approx(heat_counterexample(2, 1.0, 1.0), abs=1e-9)


class TestStabilizedTerm:
    def test_agreement_with_direct_route(self):
        # the tilted kdv real-line term against the Airy-kernel
        # convolution, within the reported budget, out to large t
        zero = builtin_profile("zero")
        for u0 in (
            builtin_profile("exp_decay", a=1.0),
            builtin_profile("gaussian", a=1.0),
            builtin_profile("x_times_gaussian", a=1.0),
            builtin_profile("bump", a=1.0, b=3.0),
        ):
            p = ProblemSpec("kdv", u0, zero, zero_forcing())
            for x, t in [
                (2.0, 1.0), (0.1, 1e-2), (1.0, 1e-3), (5.0, 1.0),
                (2.0, 10.0), (0.1, 20.0), (1.0, 50.0),
            ]:
                s = solve(p, x, t)
                ref = airy_line_term(u0, x, t)
                bound = 2.0 * math.pi * s.error_estimate + 1e-12
                assert abs(s.term_breakdown[0] - ref) <= bound

    @pytest.mark.parametrize("name", ["exp_decay", "gaussian", "x_times_gaussian"])
    def test_cubic_initial_terms_do_not_depend_on_the_tilt(self, monkeypatch, name):
        # the tilted tails are Cauchy-equivalent for every tilt in the
        # decay sector: halving and quartering it moves both cubic initial
        # terms by far less than their budgets
        zero = builtin_profile("zero")
        p = ProblemSpec("kdv", builtin_profile(name, a=1.0), zero, zero_forcing())
        for x, t in [(1.0, 0.5), (0.1, 1e-2), (2.0, 10.0), (1e-3, 0.8)]:
            for term in (solvers._initial_real_term, solvers._initial_wedge_term):
                results = []
                for delta in (math.pi / 12, math.pi / 24, math.pi / 48):
                    monkeypatch.setattr(solvers, "_cubic_tilt", lambda u0, t, d=delta: d)
                    results.append(term(p, 0, 0, x, t, DEFAULT_CONFIG))
                base = results[0]
                for r in results[1:]:
                    budget = base.error_estimate + r.error_estimate
                    assert abs(r.value - base.value) <= 1e-3 * budget

    def test_tilt_reads_the_declared_growth(self):
        # no probe: a datum without a support radius gets the full cubic
        # rotation (a probe reads b ~ 54 for exp_decay), and a bump's
        # declared radius caps the tilt at small t
        full = _FAMILIES["kdv"].rotation
        for name in ("exp_decay", "gaussian", "x_times_gaussian"):
            assert solvers._cubic_tilt(builtin_profile(name, a=1.0), 1e-3) == full
        assert solvers._cubic_tilt(builtin_profile("bump", a=0.0, b=10.0), 1e-3) < full

    def test_non_continuable_datum_is_refused(self):
        # the cubic initial terms leave the real axis; a datum whose
        # transform does not continue there is out of their domain
        u0 = dataclasses.replace(
            builtin_profile("exp_decay", a=1.0), transform_upper_ok=False
        )
        zero = builtin_profile("zero")
        with pytest.raises(OutOfDomainError):
            solve(ProblemSpec("kdv", u0, zero, zero_forcing()), 1.0, 0.5)

    def test_heat_agreement_with_direct_route(self):
        # the heat line term is integrated directly on the real line at
        # every x: against the free-space convolution of e^{-y}, y > 0,
        # 1/2 e^{t-x} erfc((2t - x)/(2 sqrt t)), within the reported budget
        p = exp_decay_problem("heat")
        for x in (1.0, 6.0, 20.0):
            for t in (1e-3, 1.0):
                s = solve(p, x, t)
                line = s.term_breakdown[0] / (2.0 * math.pi)
                free = 0.5 * math.exp(t - x) * erfc((2.0 * t - x) / (2.0 * math.sqrt(t)))
                assert abs(line - free) <= s.error_estimate + 1e-12

    def test_zero_datum(self):
        p = zero_problem("kdv")
        assert solve(p, 2.0, 1.0).term_breakdown[0] == 0

    def test_large_x_decay(self):
        p = exp_decay_problem("kdv")
        near = solve(p, 2.0, 1.0).term_breakdown[0]
        far = solve(p, 20.0, 1.0).term_breakdown[0]
        assert abs(far) <= 1e-6 * abs(near)

    def test_forcing_variant(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=1.0)
        )
        p = ProblemSpec("kdv", builtin_profile("zero"), builtin_profile("zero"), f)
        val = solve(p, 2.0, 0.5).term_breakdown[3]
        assert np.isfinite(val.real) and val != 0


class TestFieldSampleInvariants:
    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_realness(self, pde):
        p = exp_decay_problem(pde)
        for x, t in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.3)]:
            s = solve(p, x, t)
            assert s.imag_residual <= 100.0 * max(s.error_estimate, 1e-15)

    def test_term_bookkeeping(self):
        p = exp_decay_problem("heat")
        s = solve(p, 1.0, 1.0)
        total = sum(s.term_breakdown)
        assert s.value == total.real / (2.0 * math.pi)

    def test_heat_signed_terms_are_kernel_and_image(self):
        # the signed line term is the free-space heat-kernel convolution
        # and the signed wedge term minus its image
        p = exp_decay_problem("heat")
        x, t = 1.0, 0.7
        s = solve(p, x, t)
        line, wedge = (v / (2.0 * math.pi) for v in s.term_breakdown[:2])
        free, image = free_space_heat_terms(p.u0, x, t)
        assert abs(line - free) <= 1e-8 and abs(wedge + image) <= 1e-8
        assembled = sum(s.term_breakdown).real / (2.0 * math.pi)
        assert s.value == pytest.approx(assembled, abs=1e-12)

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    def test_signed_terms_recover_the_data(self, pde):
        # at small t the signed line term carries u0(x) and the others
        # vanish; as x -> 0+ the initial terms cancel and the signed
        # boundary term carries g0(t)
        p = exp_decay_problem(pde)
        near_t = [v / (2.0 * math.pi) for v in solve(p, 1.0, 1e-4).term_breakdown]
        assert abs(near_t[0] - math.exp(-1.0)) <= 1e-3
        assert all(abs(v) <= 1e-3 for v in near_t[1:])
        near_x = [v / (2.0 * math.pi) for v in solve(p, 1e-3, 0.5).term_breakdown]
        assert abs(near_x[2] - math.exp(-0.5)) <= 1e-2
        assert abs(near_x[0] + near_x[1]) <= 1e-2


class TestLinearity:
    def test_superposition_over_initial_data(self):
        a, b = 0.7, -1.3
        u1 = builtin_profile("exp_decay", a=1.0)
        u2 = builtin_profile("gaussian", a=2.0)
        g0 = builtin_profile("zero")
        p1 = ProblemSpec("heat", u1, g0, zero_forcing())
        p2 = ProblemSpec("heat", u2, g0, zero_forcing())
        pc = ProblemSpec("heat", combine_profiles(a, u1, b, u2), g0, zero_forcing())
        x, t = 1.2, 0.6
        lhs = solve(pc, x, t).value
        rhs = a * solve(p1, x, t).value + b * solve(p2, x, t).value
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_superposition_over_boundary_data(self):
        a, b = 2.0, 0.5
        g1 = builtin_profile("exp_of_t", a=-1.0)
        g2 = builtin_profile("sin_of_t", omega0=2.0)
        u0 = builtin_profile("zero")
        p1 = ProblemSpec("kdv", u0, g1, zero_forcing())
        p2 = ProblemSpec("kdv", u0, g2, zero_forcing())
        pc = ProblemSpec("kdv", u0, combine_profiles(a, g1, b, g2), zero_forcing())
        x, t = 0.8, 0.9
        lhs = solve(pc, x, t).value
        rhs = a * solve(p1, x, t).value + b * solve(p2, x, t).value
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestValidation:
    def test_boundary_points_are_excluded(self):
        p = exp_decay_problem("heat")
        with pytest.raises(InvalidParameterError):
            solve(p, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            solve(p, 1.0, 0.0)

    @pytest.mark.parametrize(
        "x,t", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_non_finite_points_are_rejected(self, x, t):
        with pytest.raises(InvalidParameterError, match="finite"):
            solve(exp_decay_problem("heat"), x, t)

    def test_truncation_error_names_term_and_point(self, monkeypatch):
        def undecaying(*args, **kwargs):
            raise TruncationError("no cutoff")

        zero = builtin_profile("zero")
        p = ProblemSpec("heat", zero, builtin_profile("exp_of_t", a=-1.0), zero_forcing())
        monkeypatch.setattr(solvers, "integrate", undecaying)
        with pytest.raises(TruncationError) as info:
            solve(p, 1e-4, 0.5)
        assert str(info.value) == "_boundary_term at (x, t) = (0.0001, 0.5): no cutoff"

    def test_accuracy_error_keeps_its_best_estimate(self, monkeypatch):
        best = object()

        def exhausted(*args, **kwargs):
            raise AccuracyError("subdivision budget exhausted", best=best)

        monkeypatch.setattr(solvers, "integrate", exhausted)
        with pytest.raises(AccuracyError) as info:
            solve(exp_decay_problem("kdv"), 1.0, 0.5)
        assert info.value.best is best
        assert str(info.value).startswith("_initial_real_term at (x, t) = (1.0, 0.5)")


class TestDoubleExponentialPieces:
    """The boundary term and the forcing tails, integrated by the
    double-exponential rule.  Down to x = 1e-6 the boundary term
    decays only like e^{-x |lam| sin(theta)} / |lam| on the rotated
    wedge; the rule finds its cutoff there."""

    @pytest.mark.parametrize("x", [1e-4, 1e-5, 1e-6])
    def test_heat_matches_oracle_and_kdv_solves(self, x):
        from utmqp.verification import heat_oracle

        p = exp_decay_problem("heat")
        assert abs(solve(p, x, 0.5).value - heat_oracle(p, x, 0.5)) <= 1e-12
        s = solve(exp_decay_problem("kdv"), x, 0.5)
        # both fields tend to g0(0.5) = e^{-0.5} as x -> 0+
        assert abs(s.value - math.exp(-0.5)) <= 1e-4
        assert s.error_estimate <= DEFAULT_CONFIG.tol

    @pytest.mark.parametrize("c,x,t", [(1.0, 1e-6, 1e-13), (1e-4, 1e-4, 1e-9)])
    def test_heat_step_datum_at_small_t(self, c, x, t):
        # g0 = c gives c erfc(x / 2 sqrt(t)); at small t the boundary
        # integrand grows like c |lam|^2 t far below the cutoff threshold
        # before it peaks near |lam| ~ 1/sqrt(t), so the ray must not be
        # cut on its way up
        p = ProblemSpec(
            "heat", builtin_profile("zero"), builtin_profile("constant", c=c),
            zero_forcing(),
        )
        s = solve(p, x, t)
        exact = c * erfc(x / (2.0 * math.sqrt(t)))
        assert abs(s.value - exact) <= 1e-12
        assert s.error_estimate <= DEFAULT_CONFIG.tol

    @pytest.mark.parametrize(
        "k,x,t", [(0, 0.0693, 0.576), (0, 0.1427, 0.0819), (1, 0.3318, 0.0328)]
    )
    def test_kdv_step_estimate_covers_the_tight_solve(self, k, x, t):
        # the step datum's boundary term alone: its default solve must lie
        # within its own estimate of the tol-1e-12 solve (Gauss-Kronrod
        # reports ~3e-16 here against a 2e-13 difference)
        p = ProblemSpec(
            "kdv", builtin_profile("zero"), builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        s = solve_derivative(p, k, 0, x, t)
        tight = solve_derivative(p, k, 0, x, t, TIGHT)
        assert abs(s.value - tight.value) <= s.error_estimate

    def test_generic_time_forcing_near_the_boundary_is_cheap(self):
        # kdv forcing exp_decay(1) x gaussian(1) in t at (0.2, 1) takes
        # ~3.7k evaluations; Gauss-Kronrod on its boundary term and on the
        # forcing remainder and expansion tails took ~955k (15 s)
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("gaussian", a=1.0)
        )
        p = ProblemSpec(
            "kdv", builtin_profile("exp_decay", a=1.0),
            builtin_profile("exp_of_t", a=-1.0), f,
        )
        terms = solvers._raw_terms(p, 0, 0, 0.2, 1.0, DEFAULT_CONFIG)
        assert sum(r.evaluations for r in terms) < 150_000


class TestGridSweep:
    def test_threaded_matches_serial(self):
        p = exp_decay_problem("heat")
        xs, ts = [0.5, 1.0], [0.3, 0.9]
        serial = solve_grid(p, xs, ts, threads=1)
        threaded = solve_grid(p, xs, ts, threads=4)
        assert [s.value for s in serial] == [s.value for s in threaded]
        assert [(s.x, s.t) for s in serial] == [
            (x, t) for x in xs for t in ts
        ]


class TestDataOnlyProblem:
    def test_boundary_and_forcing_terms_vanish(self):
        p = ProblemSpec(
            "kdv",
            builtin_profile("exp_decay", a=1.0),
            builtin_profile("zero"),
            zero_forcing(),
        )
        terms = solve(p, 1.0, 0.5).term_breakdown
        assert terms[2] == 0 and terms[3] == 0 and terms[4] == 0
        assert terms[0] != 0 and terms[1] != 0


class TestOtherDataProfiles:
    @pytest.mark.parametrize(
        "u0,g0,points",
        [
            # compatible data: u0(0) = g0(0) in each case
            (
                builtin_profile("gaussian", a=1.0),
                builtin_profile("exp_of_t", a=-1.0),
                [(0.4, 0.3), (1.2, 1.0), (2.5, 1.7)],
            ),
            (
                builtin_profile("x_times_gaussian", a=0.8),
                builtin_profile("zero"),
                [(0.6, 0.4), (1.5, 1.2)],
            ),
            (
                builtin_profile("bump", a=1.0, b=3.0),
                builtin_profile("zero"),
                [(0.4, 0.3), (1.2, 1.0), (2.5, 1.7)],
            ),
        ],
        ids=["gaussian", "x_times_gaussian", "bump"],
    )
    def test_heat_problem_matches_oracle(self, u0, g0, points):
        from utmqp.verification import heat_oracle

        p = ProblemSpec("heat", u0, g0, zero_forcing())
        # plus small t, and x past the heat real-line subtraction threshold
        for x, t in points + [(0.5, 1e-3), (2.0, 1e-3), (5.5, 1.0), (6.0, 2.0)]:
            assert solve(p, x, t).value == pytest.approx(
                heat_oracle(p, x, t), abs=1e-8
            )

    def test_x_times_gaussian_kdv_initial_recovery(self):
        p = ProblemSpec(
            "kdv",
            builtin_profile("x_times_gaussian", a=0.8),
            builtin_profile("zero"),
            zero_forcing(),
        )
        for x in (0.7, 1.4):
            u0 = x * math.exp(-0.8 * x * x)
            assert abs(solve(p, x, 1e-4).value - u0) <= 1e-3

    def test_bump_kdv_initial_recovery(self):
        bump = builtin_profile("bump", a=1.0, b=3.0)
        p = ProblemSpec("kdv", bump, builtin_profile("zero"), zero_forcing())
        for x in (1.5, 2.0, 2.5):
            assert abs(solve(p, x, 1e-4).value - float(bump(x))) <= 1e-3


class TestParameterExtremes:
    def test_steep_datum_matches_oracle(self):
        from utmqp.verification import heat_oracle

        p = ProblemSpec(
            "heat",
            builtin_profile("exp_decay", a=5.0),
            builtin_profile("exp_of_t", a=-2.0),
            zero_forcing(),
        )
        for x, t in [(0.3, 0.2), (1.0, 1.5)]:
            assert solve(p, x, t).value == pytest.approx(
                heat_oracle(p, x, t), abs=1e-8
            )

    def test_oscillatory_boundary_recovery(self):
        p = ProblemSpec(
            "kdv",
            builtin_profile("zero"),
            builtin_profile("sin_of_t", omega0=3.0),
            zero_forcing(),
        )
        for t in (0.7, 1.3):
            s = solve(p, 1e-3, t)
            assert abs(s.value - math.sin(3.0 * t)) <= 1e-2

    def test_later_time_residual(self):
        p = exp_decay_problem("kdv")
        ut = solve_derivative(p, 0, 1, 1.0, 3.0).value
        uxxx = solve_derivative(p, 3, 0, 1.0, 3.0).value
        assert abs(ut + uxxx) <= 1e-6
