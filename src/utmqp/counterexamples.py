"""Non-uniqueness witnesses for the homogeneous quarter-plane problems.

Both families arise the same way: take the contour-integral solution of a
step-datum problem (zero initial datum, boundary datum with g0(0) != 0,
an incompatible corner) and differentiate it n times in t.  The result is
a smooth nonzero field whose limits vanish both as t -> 0+ (fixed x > 0)
and as x -> 0+ (fixed t > 0), so the homogeneous problem it solves has at
least two solutions.  The fields violate the uniform-integrability
hypotheses under which uniqueness holds, which is what
``hypothesis_violation_report`` quantifies.  Fields are plain
``(x, t) -> float`` callables.

Closed forms used:

* heat, n = 1:   u1(x,t) = x / (2 sqrt(pi) t^{3/2}) e^{-x^2/(4t)}
  (the x-derivative of the Gaussian kernel up to a constant); higher n by
  exact differentiation of t^{-3/2} e^{-x^2/(4t)} via a polynomial
  recursion, no numerical differentiation.

* cubic (KdV): u_n(x,t) = -(3/(2 pi)) int_{Im lam = eps}
  (i lam^3)^{n-1} lam^2 e^{i lam x + i lam^3 t} dlam, independent of
  eps > 0.  For n = 1 the integral collapses to an Airy evaluation,
      u1(x,t) = z Ai(z) / t,   z = x (3 t)^{-1/3},
  which is the default route (the test suite checks it against the
  quadrature route).  Higher n default to the height eps = max(1,
  (3t)^{-1/3}), where the cubic phase lam^3 t is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.special import airy

from .config import DEFAULT_CONFIG, SolverConfig
from .contours import indented_line
from .errors import InvalidParameterError, RecipeDegenerateError
from .profiles import DataProfile, ProblemSpec, zero_forcing, builtin_profile
from .quadrature import Integrand, _gauss_legendre, integrate
from . import solvers as _solvers

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# heat family: exact t-derivatives of t^{-3/2} e^{-x^2/(4t)}
# ---------------------------------------------------------------------------


def _heat_kernel_t_derivative(n_minus_1: int):
    """Coefficients of d^{n-1}/dt^{n-1} [t^{-3/2} e^{-x^2/4t}] as a sum
    of terms c * x^{2j} * t^{-p} * e^{-x^2/4t} with exact rational c and
    half-integer p.  Differentiation acts termwise:
        d/dt [x^{2j} t^{-p} e] = -p x^{2j} t^{-p-1} e
                                 + (1/4) x^{2j+2} t^{-p-2} e.
    """
    terms = {(0, Fraction(3, 2)): Fraction(1)}
    for _ in range(n_minus_1):
        nxt: dict = {}
        for (j, p), c in terms.items():
            key1 = (j, p + 1)
            nxt[key1] = nxt.get(key1, Fraction(0)) - p * c
            key2 = (j + 1, p + 2)
            nxt[key2] = nxt.get(key2, Fraction(0)) + c / 4
        terms = nxt
    return [(j, float(p), float(c)) for (j, p), c in sorted(terms.items())]


def heat_counterexample(n: int, x: float, t: float) -> float:
    """The n-th member of the heat non-uniqueness family at (x, t)."""
    if n < 1:
        raise InvalidParameterError("family order n must be >= 1")
    terms = _heat_kernel_t_derivative(n - 1)
    total = 0.0
    expfac = math.exp(-x * x / (4.0 * t))
    for j, p, c in terms:
        total += c * x ** (2 * j) * t ** (-p)
    return x / (2.0 * _SQRT_PI) * total * expfac


def heat_counterexample_field(n: int) -> Callable[[float, float], float]:
    return lambda x, t: heat_counterexample(n, x, t)


# ---------------------------------------------------------------------------
# cubic family
# ---------------------------------------------------------------------------


def _kdv_line_integral(n: int, x: float, t: float, eps: float, config: SolverConfig):
    def evaluator(lam):
        lam = np.asarray(lam, dtype=complex)
        w3 = 1j * lam**3
        mult = w3 ** (n - 1) if n > 1 else 1.0
        return mult * lam * lam * np.exp(1j * lam * x + w3 * t)

    def density(lam):
        return x + 3.0 * t * np.abs(lam) ** 2

    g = Integrand(evaluator, phase_density=density)
    res = integrate(g, indented_line(eps), config.tol, config)
    return -(3.0 / (2.0 * math.pi)) * res.value


def kdv_counterexample_airy(x: float, t: float) -> float:
    """Closed form of the first cubic-family member via the Airy function."""
    z = x / (3.0 * t) ** (1.0 / 3.0)
    return z * float(airy(z)[0]) / t


def kdv_counterexample(
    n: int,
    x: float,
    t: float,
    eps: float | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> float:
    """The n-th member of the cubic non-uniqueness family at (x, t).

    Evaluated by quadrature along the line Im lambda = eps (the value is
    eps-independent); eps defaults to max(1, (3t)^{-1/3}): at small t
    the integrand spreads to |lambda| ~ t^{-1/3}, and a line left at
    height 1 stalls the quadrature.  With eps None, n = 1 uses the Airy
    closed form.
    """
    if n < 1:
        raise InvalidParameterError("family order n must be >= 1")
    if eps is None:
        if n == 1:
            return kdv_counterexample_airy(x, t)
        eps = max(1.0, (3.0 * t) ** (-1.0 / 3.0))
    val = _kdv_line_integral(n, x, t, eps, config)
    return val.real


def kdv_counterexample_field(
    n: int, config: SolverConfig = DEFAULT_CONFIG
) -> Callable[[float, float], float]:
    return lambda x, t: kdv_counterexample(n, x, t, config=config)


# ---------------------------------------------------------------------------
# the general construction
# ---------------------------------------------------------------------------


def recipe_generate(
    pde: str,
    base_boundary_step: DataProfile,
    n: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Callable[[float, float], float]:
    """Non-uniqueness field from a corner-incompatible step datum.

    Solves the base problem (u0 = 0, f = 0, g0 = ``base_boundary_step``
    with g0(0) != 0) through the contour representation and returns its
    n-th t-derivative, computed by differentiating the grouped time
    transform under the integral:  d/dt G = g0(t) - w G.

    Raises RecipeDegenerateError when g0(0) = 0: then the base solution
    is smooth up to the corner and every t-derivative has matching zero
    limits, i.e. the construction yields the zero field.
    """
    if n < 1:
        raise InvalidParameterError("derivative order n must be >= 1")
    if abs(float(base_boundary_step(0.0))) <= 1e-12:
        raise RecipeDegenerateError(
            "corner-compatible step datum (g0(0) = 0): the construction "
            "degenerates to the zero field"
        )
    problem = ProblemSpec(
        pde, builtin_profile("zero"), base_boundary_step, zero_forcing()
    )
    sign = -1.0  # the boundary term enters the solution with a minus sign

    def evaluator(x: float, t: float) -> float:
        res = _solvers._boundary_term(problem, 0, n, x, t, config)
        return sign * res.value.real / (2.0 * math.pi)

    return evaluator


# ---------------------------------------------------------------------------
# hypothesis violation: growth of the energy as t -> 0+
# ---------------------------------------------------------------------------


@dataclass
class ViolationReport:
    """Fitted small-t growth of E(t) = int_0^inf field(x,t)^2 dx.

    A negative exponent means no integrable uniform dominating function
    can exist, i.e. the uniqueness hypotheses fail for this field.
    """

    t_grid: tuple
    energies: tuple
    exponent: Optional[float]
    violated: bool

    def summary(self) -> str:
        if not self.violated:
            return "no violation detected"
        return f"E(t) ~ t^{self.exponent:.3f} as t -> 0+"


def _energy_of_field(field: Callable, t: float) -> float:
    """int_0^inf field(x, t)^2 dx with probe-doubled upper limit, by
    96-point Gauss-Legendre on each of nine geometric panels."""
    upper = 1.0
    while upper < 1e4:
        probe = max(abs(field(upper, t)), abs(field(1.3 * upper, t)))
        if probe**2 * upper < 1e-13:
            break
        upper *= 2.0
    nodes, weights = _gauss_legendre(96)
    total = 0.0
    # split [0, upper] geometrically toward 0 where the profile peaks
    edges = [0.0] + [upper * 2.0 ** (-k) for k in range(8, -1, -1)]
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (b - a) * (nodes + 1.0) + a
        vals = np.array([field(x, t) for x in xs])
        total += 0.5 * (b - a) * float(np.dot(weights, vals**2))
    return total


def hypothesis_violation_report(
    field: Callable[[float, float], float],
    T: float,
    n_t: int = 9,
    t_min: float = 1e-3,
) -> ViolationReport:
    """Fit log E vs log t on a log-spaced grid t in [t_min, T]."""
    ts = np.geomspace(t_min, T, n_t)
    energies = np.array([_energy_of_field(field, t) for t in ts])
    if np.all(energies < 1e-30):
        return ViolationReport(tuple(ts), tuple(energies), None, False)
    mask = energies > 0
    slope = float(np.polyfit(np.log(ts[mask]), np.log(energies[mask]), 1)[0])
    return ViolationReport(tuple(ts), tuple(energies), slope, slope < 0)
