"""Robin-type boundary conditions reduced to the Dirichlet case.

If two solutions of a Robin problem A u + B u_x = g0 (optionally with an
oblique C u_t term) differ, their difference xi has a vanishing Robin
image, and w = A xi + B xi_x (+ C xi_t) solves the same PDE with zero
Dirichlet data.  Dirichlet uniqueness then forces w = 0, leaving xi in
the kernel of the boundary operator:

* plain Robin (B != 0):  xi = phi(t) e^{-A x / B} with
      (1 - A^2/B^2) phi' - (A/B) phi = 0,  phi(0) = 0,
  so phi = 0 (degenerating to -(A/B) phi = 0 when A^2 = B^2).
* oblique Robin (A, B, C > 0):  xi = phi(x/B - t/C) e^{-A x / B} with
      (1/B^2) phi'' + (1/C - 2A/B^2) phi' - (A^2/B^2) phi = 0,
      phi(0) = phi'(0) = 0,
  so phi = 0 by linear ODE uniqueness.

``robin_phi_check`` / ``oblique_phi_check`` classify the branch and
report max|phi| = 0, as linear-ODE uniqueness gives it: zero data and
finite coefficients with a nonvanishing leading one admit only phi = 0.
``passed`` is therefore True on every report they return; parameters
for which the ODE is not well-posed in floating point (an input or a
coefficient not finite, or B*B underflowing) raise InvalidParameterError
instead.  ``robin_uniqueness_demo`` enacts the whole chain numerically
on a pair of independently computed heat solutions.

The B = 0 case needs no reduction (it is already Dirichlet-type data),
and is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError
from .profiles import ProblemSpec
from .solvers import solve, solve_derivative
from .verification import fd_weights, heat_oracle


@dataclass(frozen=True)
class RobinSpec:
    """Boundary operator A u + B u_x + C u_t at x = 0 (C = 0: plain Robin)."""

    A: float
    B: float
    C: float = 0.0

    def __post_init__(self):
        if self.A == 0.0 and self.B == 0.0 and self.C == 0.0:
            raise InvalidParameterError("A, B, C must not all vanish")


@dataclass
class PhiReport:
    branch: str  # "regular" | "degenerate-algebraic" | "covered-by-dirichlet"
    max_abs_phi: float
    passed: bool
    detail: str = ""


def _require_finite(**values) -> None:
    """Raise InvalidParameterError naming the first non-finite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def robin_phi_check(A: float, B: float) -> PhiReport:
    """The plain-Robin kernel function phi must vanish identically.

    Branches: B = 0 is already Dirichlet-type data; A^2 = B^2 degenerates
    the ODE to an algebraic identity; otherwise the first-order linear
    ODE with phi(0) = 0 has only the zero solution.  Raises
    InvalidParameterError when A, B or an ODE coefficient is not finite.
    """
    _require_finite(A=A, B=B)
    if B == 0.0:
        return PhiReport(
            branch="covered-by-dirichlet",
            max_abs_phi=0.0,
            passed=True,
            detail="B = 0: boundary data is already Dirichlet-type",
        )
    ratio = A / B
    lead = 1.0 - ratio * ratio
    _require_finite(**{"1 - A^2/B^2": lead})
    if abs(lead) < 1e-14:
        # (1 - A^2/B^2) phi' = (A/B) phi collapses to -(A/B) phi = 0
        return PhiReport(
            branch="degenerate-algebraic",
            max_abs_phi=0.0,
            passed=True,
            detail="A^2 = B^2: the equation itself forces phi = 0",
        )
    coef = ratio / lead
    return PhiReport(
        branch="regular",
        max_abs_phi=0.0,
        passed=True,
        detail=f"phi' = {coef:.6g} phi with phi(0) = 0, so phi = 0",
    )


def _oblique_roots(A: float, B: float, C: float) -> tuple:
    """Roots of the B^2-scaled characteristic r^2 + b r - A^2, the larger
    first.  As q and -A^2/q, q = -(b + sign(b) sqrt(b^2 + 4A^2))/2, they
    neither cancel nor overflow where the unscaled discriminant would."""
    b = B * B / C - 2.0 * A
    q = -0.5 * (b + math.copysign(math.hypot(b, 2.0 * A), b))
    return tuple(sorted((q, -(A * A) / q), reverse=True))


def oblique_phi_check(A: float, B: float, C: float) -> PhiReport:
    """The oblique-Robin kernel function phi must vanish identically.

    Requires finite A, B, C > 0 (the stated problem class).  phi solves
    a second-order linear ODE with phi(0) = phi'(0) = 0, so it vanishes;
    the leading coefficient 1/B^2 > 0 keeps the characteristic roots
    well-defined.  Raises InvalidParameterError when an input or an ODE
    coefficient is not finite, or when B*B underflows to 0.
    """
    _require_finite(A=A, B=B, C=C)
    if A <= 0 or B <= 0 or C <= 0:
        raise InvalidParameterError("oblique reduction requires A, B, C > 0")
    if B * B == 0.0:
        raise InvalidParameterError(f"B*B underflows to 0 at B = {B!r}")
    a2 = 1.0 / (B * B)
    a1 = 1.0 / C - 2.0 * A / (B * B)
    a0 = -(A * A) / (B * B)
    _require_finite(**{"1/B^2": a2, "1/C - 2A/B^2": a1, "-A^2/B^2": a0})
    roots = _oblique_roots(A, B, C)
    return PhiReport(
        branch="regular",
        max_abs_phi=0.0,
        passed=True,
        detail=f"characteristic roots {roots[0]:.6g}, {roots[1]:.6g}",
    )


# step of robin_map's finite-difference stencil in x and in t
_STENCIL_STEP = 2e-2


def robin_map(
    field: Callable,
    r: RobinSpec,
    x: float,
    t: float,
    derivatives: Optional[dict] = None,
) -> float:
    """A u + B u_x + C u_t of a field at (x, t).

    ``derivatives`` may supply exact callables {"x": u_x, "t": u_t}; the
    fallback is a centered 5-point (4th-order) stencil of step
    ``_STENCIL_STEP`` (shrunk to stay inside the quadrant), wide enough
    that oracle-level noise is not amplified.
    """
    total = r.A * field(x, t)
    if r.B != 0.0:
        if derivatives and "x" in derivatives:
            total += r.B * derivatives["x"](x, t)
        else:
            h = min(_STENCIL_STEP, x / 2.5)
            w = fd_weights(1, h * np.arange(-2, 3), 0.0)
            vals = np.array([field(x + j * h, t) for j in range(-2, 3)])
            total += r.B * float(np.dot(w, vals))
    if r.C != 0.0:
        if derivatives and "t" in derivatives:
            total += r.C * derivatives["t"](x, t)
        else:
            h = min(_STENCIL_STEP, t / 2.5)
            w = fd_weights(1, h * np.arange(-2, 3), 0.0)
            vals = np.array([field(x, t + j * h) for j in range(-2, 3)])
            total += r.C * float(np.dot(w, vals))
    return float(total)


@dataclass
class RobinDemoReport:
    max_abs_delta: float
    threshold: float
    passed: bool
    grid: str


def robin_uniqueness_demo(
    p: ProblemSpec,
    r: RobinSpec,
    xs=(0.4, 0.8, 1.2, 1.6, 2.0),
    ts=(0.4, 0.8, 1.2),
    threshold: float = 2e-6,
    oracle: Optional[Callable] = None,
) -> RobinDemoReport:
    """Apply the Robin image to two independently computed solutions of
    the same heat Dirichlet problem and bound their difference.

    Uniqueness of the Dirichlet problem predicts the images coincide; the
    measured gap reflects only the two solvers' error budgets.  Passing
    ``oracle`` (e.g. a deliberately perturbed field) turns this into an
    injected-fault detector.
    """
    if p.pde != "heat":
        raise InvalidParameterError("the demo cross-checks the heat pair")
    solver_field = lambda x, t: solve(p, x, t).value
    solver_derivs = {
        "x": lambda x, t: solve_derivative(p, 1, 0, x, t).value,
        "t": lambda x, t: solve_derivative(p, 0, 1, x, t).value,
    }
    oracle_field = oracle if oracle is not None else (
        lambda x, t: heat_oracle(p, x, t)
    )
    worst = 0.0
    for x in xs:
        for t in ts:
            w_solver = robin_map(solver_field, r, x, t, derivatives=solver_derivs)
            w_oracle = robin_map(oracle_field, r, x, t)
            worst = max(worst, abs(w_solver - w_oracle))
    return RobinDemoReport(
        max_abs_delta=worst,
        threshold=threshold,
        passed=bool(worst <= threshold),
        grid=f"x={list(xs)}, t={list(ts)}",
    )
