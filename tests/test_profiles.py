import json
import math

import numpy as np
import pytest

from utmqp.errors import InvalidParameterError
from utmqp.profiles import (
    ProblemSpec,
    builtin_profile,
    builtin_forcing,
    check_compatibility,
    combine_profiles,
    problem_from_dict,
    separable_forcing,
    zero_forcing,
)

ALL_NAMES = [
    ("exp_decay", {"a": 1.0}),
    ("gaussian", {"a": 1.0}),
    ("x_times_gaussian", {"a": 0.7}),
    ("bump", {"a": 1.0, "b": 3.0}),
    ("constant", {"c": 2.0}),
    ("exp_of_t", {"a": -1.0}),
    ("sin_of_t", {"omega0": 2.0}),
    ("zero", {}),
]

EXP = {"name": "exp_decay", "a": 1.0}
EXP_T = {"name": "exp_of_t", "a": -1.0}
GAUSS = {"name": "gaussian", "a": 1.0}


def _separable(x, t):
    return {"name": "separable", "x": x, "t": t}


class TestBuiltins:
    def test_exp_decay_values(self):
        p = builtin_profile("exp_decay", a=1.0)
        assert float(p(0.0)) == 1.0
        assert float(p.derivative(3, 0.0)) == -1.0

    def test_zero_profile(self):
        z = builtin_profile("zero")
        xs = np.linspace(0, 5, 7)
        assert np.all(z(xs) == 0)
        assert np.all(z.derivative(4, xs) == 0)

    def test_gaussian_second_derivative_at_origin(self):
        p = builtin_profile("gaussian", a=1.0)
        # oracle: centered finite difference of the profile itself
        h = 1e-4
        fd = (float(p(h)) - 2.0 * float(p(0.0)) + float(p(h))) / (h * h)
        assert fd == pytest.approx(-2.0, abs=1e-5)
        assert float(p.derivative(2, 0.0)) == pytest.approx(-2.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            builtin_profile("morlet", a=1.0)

    @pytest.mark.parametrize("name", ["exp_decay", "gaussian", "x_times_gaussian"])
    def test_nonpositive_decay_parameter(self, name):
        with pytest.raises(InvalidParameterError):
            builtin_profile(name, a=-1.0)

    def test_bump_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            builtin_profile("bump", a=3.0, b=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None])
    def test_non_finite_parameter_is_named(self, value):
        # JSON problem files can carry NaN, Infinity, strings and null
        with pytest.raises(InvalidParameterError, match="parameter 'a' must be a finite"):
            builtin_profile("exp_decay", a=value)

    def test_missing_and_extra_parameters(self):
        with pytest.raises(InvalidParameterError):
            builtin_profile("exp_decay")
        with pytest.raises(InvalidParameterError):
            builtin_profile("zero", a=1.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name,params", ALL_NAMES)
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_centered_difference_order(self, name, params, order):
        """derivative(k, .) must match centered differences of
        derivative(k-1, .) with observed order >= 1.9 between h = 1e-3
        and h = 1e-4."""
        p = builtin_profile(name, **params)
        x0 = 1.7  # inside the bump's support, generic elsewhere
        errs = []
        for h in (1e-3, 1e-4):
            fd = (
                float(p.derivative(order - 1, x0 + h))
                - float(p.derivative(order - 1, x0 - h))
            ) / (2.0 * h)
            errs.append(abs(fd - float(p.derivative(order, x0))))
        if errs[0] < 1e-13:  # flat profiles: both errors at noise level
            assert errs[1] < 1e-10
        else:
            observed = math.log10(errs[0] / max(errs[1], 1e-17))
            assert observed >= 1.9

    def test_order_zero_matches_evaluator(self):
        for name, params in ALL_NAMES:
            p = builtin_profile(name, **params)
            xs = np.linspace(0.1, 4.0, 9)
            assert np.allclose(p.derivative(0, xs), p(xs), rtol=0, atol=0)


class TestSchwartzDecay:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("exp_decay", {"a": 1.0}),
            ("gaussian", {"a": 1.0}),
            ("x_times_gaussian", {"a": 0.7}),
            ("bump", {"a": 1.0, "b": 3.0}),
        ],
    )
    def test_polynomial_weighted_decay(self, name, params):
        p = builtin_profile(name, **params)
        xs = np.geomspace(1.0, 64.0, 7)
        for k in (0, 1, 3):
            for ell in (0, 2, 4):
                vals = np.abs(np.asarray(p.derivative(k, xs))) * xs**ell
                # decreasing toward zero along the log-spaced tail
                assert vals[-1] <= 1e-8
                assert vals[-1] <= vals[0] + 1e-12


class TestBump:
    def test_support(self):
        p = builtin_profile("bump", a=1.0, b=3.0)
        assert float(p(0.5)) == 0.0
        assert float(p(3.5)) == 0.0
        assert float(p(2.0)) > 0.1

    def test_all_derivatives_vanish_at_edges(self):
        p = builtin_profile("bump", a=1.0, b=3.0)
        for k in range(6):
            assert abs(float(p.derivative(k, 1.0))) == 0.0
            assert abs(float(p.derivative(k, 3.0 - 1e-9))) < 1e-200

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (0.0, 0.5), (2.0, 6.0), (0.0, 10.0)])
    def test_transform_matches_fine_rule(self, a, b):
        # the per-lambda rule size against a 2048-node rule over the support,
        # relative to the sum of the absolute terms
        from scipy.special import roots_legendre

        p = builtin_profile("bump", a=a, b=b)
        h = 0.5 * (b - a)
        nodes, weights = roots_legendre(2048)
        y = h * nodes + 0.5 * (a + b)
        wy = h * weights * p(y)
        radii = np.geomspace(1e-3, 600.0, 40) / h
        angles = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        lam = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        # above the axis the transform grows like e^{Im lam b}; below it
        # stays bounded, also where |Im lam| h passes cos's overflow at 709
        lam = lam[lam.imag * b <= 600.0]
        kernel = np.exp(-1j * np.outer(lam, y))
        ref = kernel @ wy
        scale = np.abs(kernel) @ np.abs(wy)
        assert np.all(np.abs(p.transform(lam) - ref) <= 3e-12 * scale)


class TestCompatibility:
    def test_exp_decay_problem_heat(self):
        p = ProblemSpec(
            "heat",
            builtin_profile("exp_decay", a=1.0),
            builtin_profile("exp_of_t", a=-1.0),
            zero_forcing(),
        )
        # u0(0) = 1 = g0(0); u0''(0) = 1 but g0'(0) = -1
        assert p.corner_compatibility == (True, False)

    def test_step_datum_is_incompatible(self):
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=1.0),
            zero_forcing(),
        )
        assert p.corner_compatibility[0] is False

    def test_zero_data_fully_compatible(self):
        p = ProblemSpec(
            "kdv", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
        )
        assert p.corner_compatibility == (True, True)

    def test_kdv_second_flag_formula(self):
        # g0'(0) + u0'''(0) - f(0,0) = 0 with u0 = e^{-x}: u0''' (0) = -1,
        # so g0 with slope +1 at 0 is second-order compatible
        p = ProblemSpec(
            "kdv",
            builtin_profile("exp_decay", a=1.0),
            builtin_profile("exp_of_t", a=1.0),
            zero_forcing(),
        )
        assert p.corner_compatibility == (True, True)

    def test_never_rejects_incompatible_data(self):
        # the first-order corner mismatch is reported, not raised
        p = ProblemSpec(
            "heat",
            builtin_profile("zero"),
            builtin_profile("constant", c=5.0),
            zero_forcing(),
        )
        assert check_compatibility(p) == (False, True)


class TestForcing:
    def test_zero_forcing(self):
        f = zero_forcing()
        assert np.all(f(np.linspace(0, 3, 5), 1.0) == 0)
        assert f.is_zero()

    def test_separable_product(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=1.0), builtin_profile("constant", c=2.0)
        )
        assert float(f(1.0, 0.7)) == pytest.approx(2.0 * math.exp(-1.0))
        assert float(f.x_derivative(1, 1.0, 0.7)) == pytest.approx(
            -2.0 * math.exp(-1.0)
        )

    def test_trace_profiles(self):
        f = separable_forcing(
            builtin_profile("exp_decay", a=2.0), builtin_profile("exp_of_t", a=-1.0)
        )
        xp, tp = f.factors
        # d/dx at 0 of e^{-2x} is -2
        assert float(xp.derivative(1, 0.0) * tp(0.3)) == pytest.approx(
            -2.0 * math.exp(-0.3)
        )
        assert float(f.x_derivative(1, 0.0, 0.3)) == pytest.approx(
            -2.0 * math.exp(-0.3)
        )

    def test_builtin_forcing_specs(self):
        assert builtin_forcing(None).is_zero()
        assert builtin_forcing({"name": "zero"}).is_zero()
        f = builtin_forcing(
            {"name": "separable", "x": {"name": "exp_decay", "a": 1.0},
             "t": {"name": "constant", "c": 1.0}}
        )
        assert float(f(0.0, 0.0)) == 1.0
        with pytest.raises(InvalidParameterError):
            builtin_forcing({"name": "separable"})


class TestProblemSerialization:
    def test_round_trip(self):
        d = {
            "pde": "kdv",
            "u0": {"name": "exp_decay", "a": 1.0},
            "g0": {"name": "exp_of_t", "a": -1.0},
            "f": {"name": "zero"},
        }
        p = problem_from_dict(d)
        assert p.pde == "kdv"
        assert p.to_dict()["u0"] == {"name": "exp_decay", "a": 1.0}
        again = problem_from_dict(json.loads(json.dumps(p.to_dict())))
        assert again.to_dict() == p.to_dict()

    @pytest.mark.parametrize("pde", ["heat", "kdv"])
    @pytest.mark.parametrize(
        "g0,f",
        [
            (EXP_T, _separable(EXP, {"name": "constant", "c": 1.0})),
            (EXP_T, _separable(GAUSS, EXP_T)),
            (EXP_T, _separable(GAUSS, {"name": "sin_of_t", "omega0": 1.0})),
            (GAUSS, {"name": "zero"}),
            ({"name": "x_times_gaussian", "a": 1.0}, {"name": "zero"}),
            (EXP_T, _separable(EXP, GAUSS)),
        ],
    )
    def test_forced_round_trip(self, pde, g0, f):
        p = problem_from_dict({"pde": pde, "u0": EXP, "g0": g0, "f": f})
        assert p.to_dict()["f"] == f
        assert problem_from_dict(p.to_dict()).to_dict() == p.to_dict()

    def test_rejects_non_decaying_initial_datum(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec(
                "heat",
                builtin_profile("constant", c=1.0),
                builtin_profile("zero"),
                zero_forcing(),
            )

    def test_rejects_unknown_pde(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec(
                "wave", builtin_profile("zero"), builtin_profile("zero"), zero_forcing()
            )


class TestCombination:
    def test_linear_combination(self):
        a = builtin_profile("exp_decay", a=1.0)
        b = builtin_profile("gaussian", a=2.0)
        c = combine_profiles(2.0, a, -0.5, b)
        xs = np.linspace(0.0, 3.0, 7)
        assert np.allclose(c(xs), 2.0 * a(xs) - 0.5 * b(xs))
        assert np.allclose(
            c.derivative(2, xs), 2.0 * a.derivative(2, xs) - 0.5 * b.derivative(2, xs)
        )
        lam = np.array([0.3 - 0.2j, 2.0 + 0j])
        assert np.allclose(
            c.transform(lam), 2.0 * a.transform(lam) - 0.5 * b.transform(lam)
        )
