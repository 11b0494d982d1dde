"""Contour-integral solution of the quarter-plane problems.

For x > 0, t > 0 the solution of either problem is assembled from five
spectral terms,

    2 pi U(x,t) = T_init_line + s_w * T_init_wedge - T_bdry
                  + T_force_line + s_w * T_force_wedge,

with s_w = +1 for the cubic (KdV) family and -1 for the heat family.
Each term integrates (i lam)^k K(lam) S(lam) over the real line or the
wedge W.  The kernel K depends on (x, t) only through e^{i lam x} and
the dispersion rate w(lam); S is a spatial factor:

    term              kernel K                   spatial factor S
    init line, wedge  (-w)^m e^{i lam x - w t}   uhat of u0
    boundary          e^{i lam x} d_t^m G_g0     boundary coefficient
    force line, wedge e^{i lam x} d_t^m G_tp     uhat of xp

with uhat the half-line Fourier transform, f = xp(x) tp(t) the forcing,
and G_g(w, t) = int_0^t e^{-w (t - tau)} g(tau) dtau the grouped time
transform (bounded where Re w >= 0; d/dt G = g(t) - w G).  On W the
wedge map acts on S alone, since it leaves w unchanged: for the cubic
family (u_t + u_xxx = f, w = -i lam^3, W at pi/3 and 2pi/3) it is
S -> a S(a lam) + a^2 S(a^2 lam), a = e^{2 pi i/3}; for heat (u_t -
u_xx = f, w = lam^2, W at pi/4 and 3pi/4) it is S -> S(-lam).  The
boundary coefficients 3 lam^2 and 2 i lam (the latter pinned by the
image-kernel oracle and the step-datum closed form) and everything else
that differs between the families sit in one ``_Family`` record.

Each term is integrated where its integrand genuinely decays:

* Boundary terms and every heat wedge term stay bounded as the wedge
  rotates toward the real axis (the reflected argument -lam remains in
  the transforms' lower half-plane), so they are integrated whole on the
  rotated wedge, where they decay exponentially: the contour is marked
  ``decaying`` and integrate() takes its double-exponential rule.  The
  heat initial real-line term is integrated directly on the real line
  (its Gaussian factor decays).

* The other terms split at |lam| = 1, the split held as data (``_Split``)
  and integrated by the one builder ``_split_term``: a central piece
  inside the unit disk, and tails that are rays from the unit points (+-1
  on the real line, e^{i pi/3} and e^{2i pi/3} on the cubic wedge).  The
  cubic initial terms tilt their tails off the axis into the sector where
  e^{-w t} decays (up off the real line, down off the wedge), which the
  continuation of the transform above the real axis permits; the tilt is
  capped so a compact-support transform's growth never outruns the
  decay.  A forcing kernel decays only algebraically in lam on the axis,
  but on tails tilted by a fixed angle e^{i lam x} decays exponentially
  and the grouped time factor stays bounded (Re w > 0), so the forcing
  terms put their whole integrand there (the double-exponential rule
  again) when the space factor's transform continues above the axis
  without growing; a compact-support factor (a bump, whose continuation
  grows like e^{b Im lam}) keeps the untilted tails.  The other pieces are integrated by
  adaptive Gauss-Kronrod.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from . import contours
from .contours import Contour, LineSegment, Ray
from .errors import (
    AccuracyError,
    InvalidParameterError,
    OutOfDomainError,
    TruncationError,
    UnsupportedOrderError,
)
from .profiles import DataProfile, ProblemSpec
from .quadrature import Integrand, QuadratureResult, ZERO_RESULT, integrate
from .transforms import grouped_time_transform, half_line_fourier
# unused here; bench/tracing.py patches these names on utmqp.solvers
from .quadrature import power_law_envelope  # noqa: F401
from .transforms import (  # noqa: F401
    forcing_tail_expansion,
    forcing_transform,
    grouped_forcing_tail_time_transform,
    grouped_forcing_time_transform,
    tail_expansion,
)


@dataclass(frozen=True)
class FieldSample:
    """One evaluated field value with its quadrature error budget.

    ``term_breakdown`` holds the five signed term values, so that
    sum(term_breakdown) = 2 pi (value + i imag_residual) exactly as
    summed.
    """

    x: float
    t: float
    value: float
    error_estimate: float
    term_breakdown: tuple

    @property
    def imag_residual(self) -> float:
        return float(abs(sum(self.term_breakdown).imag)) / (2.0 * math.pi)


# cap on k + order*m for derivative evaluation
_MAX_ORDER = 8

# the growth e^_TILT_CAP a tilted transform may gain over the cubic
# time factor (see _cubic_tilt)
_TILT_CAP = 12.0

# the primitive cube root of unity and its square (the cubic wedge map)
_ALPHA = cmath.exp(2j * math.pi / 3.0)
_ALPHA_SQ = cmath.exp(4j * math.pi / 3.0)

# ---------------------------------------------------------------------------
# contour splits
# ---------------------------------------------------------------------------


def _tails(left: complex, thl: float, right: complex, thr: float) -> Contour:
    """The ray at argument ``thl`` inbound to ``left``, then the ray at
    argument ``thr`` outbound from ``right``."""
    return Contour((Ray(left, thl, orientation=-1), Ray(right, thr)))


@dataclass(frozen=True)
class _Split:
    """The pieces of a term split at |lambda| = 1: ``central``, and
    ``tilted(delta)``, the tails from the two unit points turned by
    ``delta`` into the sector where the kernel decays (``tilted(0)`` runs
    along the untilted contour).  ``forcing_tails`` are the tails at a
    fixed tilt, where e^{i lam x} and the grouped time factor both decay
    exponentially (marked ``decaying``): a forcing integrand goes onto
    them whole when its space factor's transform continues there."""

    central: Contour
    tilted: Callable[[float], Contour]
    forcing_tails: Contour


def _line_split(forcing_tilt: float) -> _Split:
    """The real line: [-1, 1] and the tails from -1 and 1, tilted up."""
    left, right = -1.0 + 0j, 1.0 + 0j
    tilted = lambda d: _tails(left, math.pi - d, right, d)
    return _Split(
        central=Contour((LineSegment(left, right),)),
        tilted=tilted,
        forcing_tails=replace(tilted(forcing_tilt), decaying=True),
    )


def _wedge_split(thr: float, thl: float, rotation: float) -> _Split:
    """The wedge: its part inside the unit disk, and the tails from its
    unit points, tilted toward the real axis."""
    left, right = cmath.exp(1j * thl), cmath.exp(1j * thr)
    tilted = lambda d: _tails(left, thl + d, right, thr - d)
    return _Split(
        central=Contour((LineSegment(left, 0j), LineSegment(0j, right))),
        tilted=tilted,
        forcing_tails=replace(tilted(rotation), decaying=True),
    )


# ---------------------------------------------------------------------------
# the two families
# ---------------------------------------------------------------------------


def _alpha_combo(func: Callable, check_domain: bool = False) -> Callable:
    """lam -> a f(a lam) + a^2 f(a^2 lam), optionally asserting that the
    rotated arguments stay in the closed lower half-plane (they do on and
    below the cubic wedge; the runtime check guards contour mistakes)."""

    def combo(lam):
        lam = np.asarray(lam, dtype=complex)
        za, zb = _ALPHA * lam, _ALPHA_SQ * lam
        if check_domain:
            slack = 1e-9 * (1.0 + np.abs(lam))
            if np.any(za.imag > slack) or np.any(zb.imag > slack):
                raise OutOfDomainError(
                    "rotated transform argument left the lower half-plane"
                )
        return _ALPHA * func(za) + _ALPHA_SQ * func(zb)

    return combo


def _reflect(func: Callable) -> Callable:
    """lam -> f(-lam), in the lower half-plane for every lam in the upper;
    only the cubic wedge split asks a wedge map to check its domain."""
    return lambda lam: func(-np.asarray(lam, dtype=complex))


@dataclass(frozen=True)
class _Family:
    """What the five terms of one PDE family need.  ``w`` is the rate of
    the time factor e^{-w(lam) t}, ``dw`` its lambda-derivative (for the
    phase density) and ``order`` its degree.  ``rotated`` is the wedge
    tilted by ``rotation`` toward the real axis, marked ``decaying``: every
    integrand put on it decays exponentially.  ``wedge_split`` is None
    for heat, whose time factor decays on the real axis: its initial
    real-line term is integrated directly and its wedge terms whole on
    ``rotated`` (see the module docstring)."""

    w: Callable
    dw: Callable
    order: int
    rotation: float
    rotated: Contour
    line_split: _Split
    wedge_split: _Split | None
    boundary_coef: Callable
    wedge_map: Callable
    signs: tuple


def _family(wedge, rotation, split_wedge, **fields) -> _Family:
    """The family on ``wedge``; its line split's forcing tails run
    parallel to the rays of the rotated wedge."""
    thl, thr = (ray.angle for ray in wedge)
    return _Family(
        rotation=rotation,
        rotated=replace(
            contours.ray_pair(thl + rotation, thr - rotation), decaying=True
        ),
        line_split=_line_split(thr - rotation),
        wedge_split=_wedge_split(thr, thl, rotation) if split_wedge else None,
        **fields,
    )


_FAMILIES = {
    "kdv": _family(
        contours.kdv_contour(), math.pi / 12.0, True,
        w=lambda lam: -1j * lam**3, dw=lambda lam: -3j * lam * lam, order=3,
        boundary_coef=lambda lam: 3.0 * lam * lam, wedge_map=_alpha_combo,
        signs=(1.0, 1.0, -1.0, 1.0, 1.0),
    ),
    "heat": _family(
        contours.heat_contour(), math.pi / 8.0, False,
        w=lambda lam: lam * lam, dw=lambda lam: 2.0 * lam, order=2,
        boundary_coef=lambda lam: 2j * lam, wedge_map=_reflect,
        signs=(1.0, -1.0, -1.0, 1.0, -1.0),
    ),
}

# ---------------------------------------------------------------------------
# integrand builders
# ---------------------------------------------------------------------------


def _integrand(
    fam: _Family, k: int, x: float, t: float, kernel: Callable
) -> Callable[[Callable], Integrand]:
    """spatial -> the integrand (i lam)^k kernel(lam) spatial(lam) of one
    term.  The product stays one expression in this order: regrouping it
    moves the last bits of the integrand."""

    def density(lam):
        return x + t * np.abs(fam.dw(lam))

    def build(spatial: Callable) -> Integrand:
        def evaluator(lam):
            mult = (1j * lam) ** k if k else 1.0
            return mult * kernel(lam) * spatial(lam)

        return Integrand(evaluator, phase_density=density)

    return build


def _decay(fam: _Family, m: int, x: float, t: float) -> Callable:
    """The data kernel (-w)^m e^{i lam x - w t}, one exponential."""

    def kernel(lam):
        w = fam.w(lam)
        decay = np.exp(1j * lam * x - w * t)
        return (-w) ** m * decay if m else decay

    return kernel


def _grouped(
    fam: _Family, g: DataProfile, m: int, x: float, t: float, tol: float
) -> Callable:
    """The grouped kernel e^{i lam x} d_t^m G_g(w, t), G_g = int_0^t
    e^{-w (t - tau)} g(tau) dtau, by the exact recursion
    d/dt G = g(t) - w G."""

    def kernel(lam):
        w = fam.w(lam)
        G = grouped_time_transform(g, w, t, tol)
        for j in range(m):
            G = float(g.derivative(j, t)) - w * G
        return np.exp(1j * lam * x) * G

    return kernel


# ---------------------------------------------------------------------------
# term evaluators
# ---------------------------------------------------------------------------


def _split_term(
    build: Callable[[Callable], Integrand],
    spatial: Callable,
    split: _Split,
    tails: Contour,
    config: SolverConfig,
) -> QuadratureResult:
    """One term over ``split``: ``spatial`` on the central piece and on
    ``tails``.  Each piece is integrated to the full term tolerance; the
    reported error estimate is the (conservative) sum over pieces."""
    g = build(spatial)
    central = integrate(g, split.central, config.tol, config)
    return central + integrate(g, tails, config.tol, config)


def _cubic_tilt(u0: DataProfile, t: float) -> float:
    """Largest tilt <= the cubic rotation for which the transform growth
    e^{b r sin(d)} along the tilted tails stays within e^_TILT_CAP of the
    cubic decay e^{-t r^3 sin(3 d)}, b the declared support radius of
    ``u0`` (0 when undeclared).  Keeps upward continuations of
    compact-support transforms free of catastrophic cancellation."""
    if not u0.transform_upper_ok:
        raise OutOfDomainError(
            "the cubic initial terms need a transform continuation above the "
            "real axis"
        )
    b = float(u0.support_radius or 0.0)
    order = 3

    def max_exponent(d: float) -> float:
        s1, s2 = math.sin(d), math.sin(order * d)
        if s2 <= 0:
            return math.inf
        r_star = (b * s1 / (order * t * s2)) ** (1.0 / (order - 1))
        return b * s1 * r_star * (1.0 - 1.0 / order)

    d = _FAMILIES["kdv"].rotation
    while d > 1e-4 and max_exponent(d) > _TILT_CAP:
        d /= 1.5
    return d


def _initial_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig,
    on_wedge: bool,
) -> QuadratureResult:
    """The initial real-line or wedge term: whole on the real line or the
    rotated wedge (heat), or over the split with its tails tilted by
    ``_cubic_tilt`` (cubic)."""
    fam = _FAMILIES[p.pde]
    build = _integrand(fam, k, x, t, _decay(fam, m, x, t))
    uhat = lambda lam: half_line_fourier(p.u0, lam, config.tol)
    if on_wedge:
        uhat = fam.wedge_map(uhat)
    if fam.wedge_split is None:
        whole = fam.rotated if on_wedge else contours.real_line()
        return integrate(build(uhat), whole, config.tol, config)
    split = fam.wedge_split if on_wedge else fam.line_split
    tails = split.tilted(_cubic_tilt(p.u0, t))
    return _split_term(build, uhat, split, tails, config)


def _initial_real_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    return _initial_term(p, k, m, x, t, config, on_wedge=False)


def _initial_wedge_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    return _initial_term(p, k, m, x, t, config, on_wedge=True)


def _boundary_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    fam = _FAMILIES[p.pde]
    build = _integrand(fam, k, x, t, _grouped(fam, p.g0, m, x, t, config.tol))
    return integrate(build(fam.boundary_coef), fam.rotated, config.tol, config)


def _forcing_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig,
    on_wedge: bool,
) -> QuadratureResult:
    """The forcing real-line or wedge term, f = xp(x) tp(t): whole on the
    rotated wedge (heat wedge), or over the split.  The split's tails are
    its decaying forcing tails when the transform of xp continues above
    the real axis without growing there (no declared support radius);
    otherwise (a bump) they are the untilted tails, where the transform
    stays in the closed lower half-plane."""
    fam = _FAMILIES[p.pde]
    xp, tp = p.f.factors
    build = _integrand(fam, k, x, t, _grouped(fam, tp, m, x, t, config.tol))
    uhat = lambda lam: half_line_fourier(xp, lam, config.tol)
    split = fam.wedge_split if on_wedge else fam.line_split
    if split is None:
        return integrate(build(fam.wedge_map(uhat)), fam.rotated, config.tol, config)
    tilt = xp.transform_upper_ok and xp.support_radius is None
    if on_wedge:
        uhat = fam.wedge_map(uhat, check_domain=not tilt)
    tails = split.forcing_tails if tilt else split.tilted(0.0)
    return _split_term(build, uhat, split, tails, config)


def _forcing_real_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    return _forcing_term(p, k, m, x, t, config, on_wedge=False)


def _forcing_wedge_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    return _forcing_term(p, k, m, x, t, config, on_wedge=True)


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def _validate(p: ProblemSpec, k: int, m: int, x: float, t: float):
    if not (math.isfinite(x) and math.isfinite(t)):
        raise InvalidParameterError(f"x and t must be finite, got ({x}, {t})")
    if x <= 0 or t <= 0:
        raise InvalidParameterError(
            "the representation is defined for x > 0, t > 0; boundary values "
            "are obtained as limits"
        )
    if k < 0 or m < 0:
        raise UnsupportedOrderError("derivative orders must be nonnegative")
    order = _FAMILIES[p.pde].order
    if k + order * m > _MAX_ORDER:
        raise UnsupportedOrderError(
            f"k + {order}*m = {k + order * m} exceeds max order {_MAX_ORDER}"
        )
    if m > 1 and not p.f.is_zero():
        raise UnsupportedOrderError(
            "time-derivative orders above 1 require zero forcing (the generic "
            "time transform is sized by Re w, not |w|, and each order "
            "multiplies its error by w)"
        )


# the five terms in assembly order, each with the datum that switches it on
_TERMS = (
    ("u0", _initial_real_term),
    ("u0", _initial_wedge_term),
    ("g0", _boundary_term),
    ("f", _forcing_real_term),
    ("f", _forcing_wedge_term),
)


def _run_term(term: Callable, p, k, m, x, t, config) -> QuadratureResult:
    """One term, its accuracy and truncation failures prefixed with the
    term's name and the point (type and ``AccuracyError.best`` kept)."""
    try:
        return term(p, k, m, x, t, config)
    except (AccuracyError, TruncationError) as exc:
        exc.args = (f"{term.__name__} at (x, t) = ({x}, {t}): {exc}",)
        raise


def _raw_terms(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
):
    _validate(p, k, m, x, t)
    return tuple(
        ZERO_RESULT if getattr(p, datum).is_zero()
        else _run_term(term, p, k, m, x, t, config)
        for datum, term in _TERMS
    )


def _assemble(p, k, m, x, t, config) -> FieldSample:
    results = _raw_terms(p, k, m, x, t, config)
    signs = _FAMILIES[p.pde].signs
    signed = tuple(s * r.value for s, r in zip(signs, results))
    total = sum(signed)
    err = sum(r.error_estimate for r in results) / (2.0 * math.pi)
    return FieldSample(
        x=x,
        t=t,
        value=total.real / (2.0 * math.pi),
        error_estimate=err,
        term_breakdown=signed,
    )


def solve(
    p: ProblemSpec, x: float, t: float, config: SolverConfig = DEFAULT_CONFIG
) -> FieldSample:
    """Evaluate the solution field U(x, t)."""
    return _assemble(p, 0, 0, x, t, config)


def solve_derivative(
    p: ProblemSpec,
    k: int,
    m: int,
    x: float,
    t: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> FieldSample:
    """d^{k+m} U / dx^k dt^m by differentiation under the integrals."""
    return _assemble(p, k, m, x, t, config)


def solve_grid(
    p: ProblemSpec,
    xs,
    ts,
    k: int = 0,
    m: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    threads: int | None = None,
):
    """Evaluate on the tensor grid xs x ts; returns samples in fixed
    (x-major) order regardless of thread count."""
    import concurrent.futures
    import os

    points = [(x, t) for x in xs for t in ts]
    workers = threads or config.threads or os.cpu_count() or 1
    if workers <= 1 or len(points) <= 1:
        return [_assemble(p, k, m, x, t, config) for x, t in points]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_assemble, p, k, m, x, t, config) for x, t in points]
        return [f.result() for f in futures]
