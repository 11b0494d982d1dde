"""Contour-integral solution of the quarter-plane problems.

For x > 0, t > 0 the solution of either problem is assembled from five
spectral terms,

    2 pi U(x,t) = T_init_line + s_w * T_init_wedge - T_bdry
                  + T_force_line + s_w * T_force_wedge,

with s_w = +1 for the cubic (KdV) family and -1 for the heat family:

* cubic, u_t + u_xxx = f, dispersion rate w(lam) = -i lam^3, wedge rays
  at arguments pi/3 and 2pi/3 (where Re w = 0):

      T_init_line   = int_R  e^{i lam x - w t} uhat(lam) dlam
      T_init_wedge  = int_W  e^{i lam x - w t}
                      [a uhat(a lam) + a^2 uhat(a^2 lam)] dlam,  a = e^{2 pi i/3}
      T_bdry        = int_W  e^{i lam x - w t} 3 lam^2 gtilde(w, t) dlam
      T_force_line  = int_R  e^{i lam x - w t} ftilde(lam, w, t) dlam
      T_force_wedge = int_W  e^{i lam x - w t}
                      [a ftilde(a lam, w, t) + a^2 ftilde(a^2 lam, w, t)] dlam

* heat, u_t - u_xx = f, rate w = lam^2, wedge rays at pi/4 and 3pi/4:

      T_init_wedge  = int_W e^{i lam x - lam^2 t} uhat(-lam) dlam
      T_bdry        = int_W e^{i lam x - lam^2 t} 2 i lam gtilde(lam^2, t) dlam
      T_force_wedge = int_W e^{i lam x - lam^2 t} ftilde(-lam, t) dlam

  (The boundary coefficient 2 i lam is pinned by the image-kernel oracle
  and by the closed form of the step-datum solution.)

Every term is evaluated with overflow-safe groupings (the time transforms
only ever appear as e^{-w t} gtilde) and with contour decompositions that
give genuinely decaying integrands at all (x, t).  Each subtracted term
uses one of two splits at |lam| = 1, held as data (``_Split``) and
integrated by the one builder ``_split_term``: a central piece carrying
the full integrand, remainder rays carrying it minus its M-term
large-lambda expansion (O(lam^{-M-1}), absolutely integrable), and the
expansion itself pushed where the time factor decays like
e^{-c t |lam|^order}.

* The line split (both real-line terms) pushes the expansion up short
  vertical segments onto the far wedge, its rays tilted slightly toward
  the real axis.  The heat initial term may instead be integrated
  directly on the real line (its Gaussian time factor already decays).

* The wedge split (the initial and cubic forcing wedge terms) carries the
  expansion around radius-1 arcs onto tilted rays.

* A datum whose origin derivatives all vanish has nothing to subtract;
  its split's tails are tilted by a safe angle instead.

* Boundary terms (and the heat forcing wedge term) have entire, bounded
  grouped integrands, so the whole wedge is rotated toward the real axis.

Derivatives in x multiply integrands by (i lam)^k; derivatives in t
multiply data terms by (-w)^m and act on the grouped time transforms of
the boundary/forcing terms through the exact recursion
d/dt G = g(t) - w G.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from . import contours
from .contours import CircularArc, Contour, LineSegment, Ray, rotate_rays
from .errors import (
    InvalidParameterError,
    OutOfDomainError,
    UnsupportedOrderError,
)
from .profiles import DataProfile, ProblemSpec
from .quadrature import (
    Integrand,
    QuadratureResult,
    ZERO_RESULT,
    integrate,
    power_law_envelope,
)
from .transforms import (
    Dispersion,
    forcing_tail_expansion,
    forcing_transform,
    grouped_forcing_tail_time_transform,
    grouped_forcing_time_transform,
    grouped_time_transform,
    half_line_fourier,
    support_radius,
    tail_expansion,
)


@dataclass(frozen=True)
class CubeRoots:
    """The primitive cube root of unity and its square."""

    alpha: complex = cmath.exp(2j * math.pi / 3.0)
    alpha_sq: complex = cmath.exp(4j * math.pi / 3.0)


CUBE_ROOTS = CubeRoots()
_ALPHA = CUBE_ROOTS.alpha
_ALPHA_SQ = CUBE_ROOTS.alpha_sq


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


@dataclass(frozen=True)
class _Wedge:
    theta_right: float
    theta_left: float
    vertical_height: float
    far_radius: float
    contour: Contour
    # ray tilt toward the real axis, gaining decay of the time factor on
    # the deformed contours
    rotation: float


_WEDGES = {
    "kdv": _Wedge(
        math.pi / 3.0, 2.0 * math.pi / 3.0, math.sqrt(3.0), 2.0,
        contours.kdv_contour(), math.pi / 12.0,
    ),
    "heat": _Wedge(
        math.pi / 4.0, 3.0 * math.pi / 4.0, 1.0, math.sqrt(2.0),
        contours.heat_contour(), math.pi / 8.0,
    ),
}

# x beyond which the heat real-line term switches to the subtracted
# decomposition; the kdv real-line term always uses it
_STABILIZE_THRESHOLD_HEAT = 5.0
# cap on k + order*m for derivative evaluation
_MAX_ORDER = 8

# ---------------------------------------------------------------------------
# contour splits
# ---------------------------------------------------------------------------


def _tilted_far_contour(thr: float, thl: float, radius: float, delta: float) -> Contour:
    """The rays at arguments ``thr`` and ``thl`` beyond ``radius``, tilted
    by ``delta`` toward the real axis (negative ``delta`` tilts away),
    joined by arcs at ``radius``.  Cauchy-equivalent to the straight rays
    for integrands analytic in the swept sectors (away from the origin)."""
    return Contour(
        (
            Ray(radius * cmath.exp(1j * (thl + delta)), thl + delta, orientation=-1),
            CircularArc(0j, radius, thl + delta, thl),
            CircularArc(0j, radius, thr, thr - delta),
            Ray(radius * cmath.exp(1j * (thr - delta)), thr - delta),
        )
    )


@dataclass(frozen=True)
class _Split:
    """The pieces of a term split at |lambda| = 1: ``central``, the
    ``remainder`` rays (envelope probed along ``envelope_ray``), the
    ``expansion`` contours, and ``tilted(delta)`` for expansion-free data."""

    central: Contour
    remainder: Contour
    envelope_ray: Ray
    expansion: tuple
    tilted: Callable[[float], Contour]


def _line_split(geo: _Wedge) -> _Split:
    """The real line: [-1, 1], the tails |lambda| >= 1, and the expansion
    carried up vertical segments onto the far wedge tilted by its
    rotation."""
    left, right, up = -1.0 + 0j, 1.0 + 0j, 1j * geo.vertical_height
    ray = Ray(right, 0.0)
    return _Split(
        central=Contour((LineSegment(left, right),)),
        remainder=Contour((Ray(left, math.pi, orientation=-1), ray)),
        envelope_ray=ray,
        expansion=(
            Contour((LineSegment(left + up, left), LineSegment(right, right + up))),
            _tilted_far_contour(
                geo.theta_right, geo.theta_left, geo.far_radius, geo.rotation
            ),
        ),
        tilted=lambda delta: _tilted_far_contour(0.0, math.pi, 1.0, -delta),
    )


def _wedge_split(geo: _Wedge) -> _Split:
    """The wedge: its part inside the unit disk, the rays beyond it, and
    the expansion carried around radius-1 arcs onto rays tilted by its
    rotation."""
    thr, thl = geo.theta_right, geo.theta_left
    left, right = cmath.exp(1j * thl), cmath.exp(1j * thr)
    ray = Ray(right, thr)
    return _Split(
        central=Contour((LineSegment(left, 0j), LineSegment(0j, right))),
        remainder=Contour((Ray(left, thl, orientation=-1), ray)),
        envelope_ray=ray,
        expansion=(_tilted_far_contour(thr, thl, 1.0, geo.rotation),),
        tilted=lambda delta: _tilted_far_contour(thr, thl, 1.0, delta),
    )


# ---------------------------------------------------------------------------
# integrand builders
# ---------------------------------------------------------------------------


def _data_integrand(
    disp: Dispersion, k: int, m: int, x: float, t: float
) -> Callable[[Callable], Integrand]:
    """spatial -> the integrand (i lam)^k (-w)^m e^{i lam x - w t}
    spatial(lam)."""

    def density(lam):
        return x + t * np.abs(disp.dw(lam))

    def build(spatial: Callable) -> Integrand:
        def evaluator(lam):
            w = disp.w(lam)
            mult = (1j * lam) ** k if k else 1.0
            if m:
                mult = mult * (-w) ** m
            return mult * np.exp(1j * lam * x - w * t) * spatial(lam)

        return Integrand(evaluator, phase_density=density)

    return build


def _grouped_integrand(
    disp: Dispersion, k: int, x: float, t: float, coef: Callable
) -> Callable[[Callable], Integrand]:
    """grouped -> the integrand (i lam)^k coef(lam) e^{i lam x}
    grouped(lam); the time decay lives inside ``grouped``."""

    def density(lam):
        return x + t * np.abs(disp.dw(lam))

    def build(grouped: Callable) -> Integrand:
        def evaluator(lam):
            mult = (1j * lam) ** k if k else 1.0
            return mult * coef(lam) * np.exp(1j * lam * x) * grouped(lam)

        return Integrand(evaluator, phase_density=density)

    return build


def _one(lam):
    return np.ones_like(np.asarray(lam, dtype=complex))


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


# ---------------------------------------------------------------------------
# term evaluators
# ---------------------------------------------------------------------------


def _split_term(
    build: Callable[[Callable], Integrand],
    full: Callable,
    tail: Callable | None,
    split: _Split,
    delta: float | None,
    config: SolverConfig,
) -> QuadratureResult:
    """One term over ``split``: ``full`` on the central piece, ``full -
    tail`` on the remainder rays and ``tail`` on the expansion contours.
    With ``tail`` None there is nothing to subtract, and ``full`` is
    integrated on the central piece and the tails tilted by ``delta``."""
    g = build(full)
    if tail is None:
        pieces = [(g, split.central), (g, split.tilted(delta))]
    else:
        rem = build(lambda lam: full(lam) - tail(lam))
        rem.decay_envelope = power_law_envelope(rem, split.envelope_ray)
        pieces = [(g, split.central), (rem, split.remainder)]
        pieces += [(build(tail), contour) for contour in split.expansion]
    # each piece is integrated to the full term tolerance; the reported
    # error estimate is the (conservative) sum over pieces
    return sum((integrate(g, c, config.tol, config) for g, c in pieces), ZERO_RESULT)


def _tail_expansion_trivial(u0: DataProfile, terms: int) -> bool:
    return all(abs(float(u0.derivative(j, 0.0))) < 1e-14 for j in range(terms))


def _cubic_tilt(u0: DataProfile, t: float, config: SolverConfig, cap: float = 12.0):
    """Largest tilt <= the cubic rotation for which the transform growth
    e^{b r sin(d)} along the tilted ray stays within e^cap of the cubic
    decay e^{-t r^3 sin(3 d)}, b the support radius of ``u0`` (declared,
    else probed).  Keeps upward continuations of compact-support
    transforms free of catastrophic cancellation."""
    b = u0.support_radius
    b = support_radius(u0, config.tol) if b is None else float(b)
    order = 3

    def max_exponent(d: float) -> float:
        s1, s2 = math.sin(d), math.sin(order * d)
        if s2 <= 0:
            return math.inf
        r_star = (b * s1 / (order * t * s2)) ** (1.0 / (order - 1))
        return b * s1 * r_star * (1.0 - 1.0 / order)

    d = _WEDGES["kdv"].rotation
    while d > 1e-4 and max_exponent(d) > cap:
        d /= 1.5
    return d


def _effective_terms(config: SolverConfig, disp: Dispersion, k: int, m: int) -> int:
    # keep the subtracted remainder O(lam^{-tail_terms-1}) after the
    # derivative multipliers raise the degree by k + order*m
    return config.tail_terms + k + disp.order * m


def _initial_real_term(
    p: ProblemSpec,
    k: int,
    m: int,
    x: float,
    t: float,
    config: SolverConfig,
    stabilized: bool,
) -> QuadratureResult:
    disp = Dispersion(p.pde)
    tol = config.tol
    build = _data_integrand(disp, k, m, x, t)
    uhat = lambda lam: half_line_fourier(p.u0, lam, tol)
    terms = _effective_terms(config, disp, k, m)
    # nothing to subtract when all origin derivatives vanish
    trivial = stabilized and _tail_expansion_trivial(p.u0, terms)

    if not stabilized or (trivial and p.pde == "heat"):
        return integrate(build(uhat), contours.real_line(), tol, config)

    split = _line_split(_WEDGES[p.pde])
    if trivial:
        # the cubic oscillatory tails are instead lifted off the real
        # axis, which the transform's continuation permits
        if not p.u0.transform_upper_ok:
            raise OutOfDomainError(
                "expansion-free datum on the cubic real-line term requires "
                "a transform continuation above the real axis"
            )
        delta = _cubic_tilt(p.u0, t, config)
        return _split_term(build, uhat, None, split, delta, config)
    sigma = lambda lam: tail_expansion(p.u0, terms, lam)
    return _split_term(build, uhat, sigma, split, None, config)


def _initial_wedge_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    disp = Dispersion(p.pde)
    tol = config.tol
    build = _data_integrand(disp, k, m, x, t)
    terms = _effective_terms(config, disp, k, m)
    uhat = lambda lam: half_line_fourier(p.u0, lam, tol)
    sigma = lambda lam: tail_expansion(p.u0, terms, lam)
    geo = _WEDGES[p.pde]
    split = _wedge_split(geo)

    if p.pde == "kdv":
        full = _alpha_combo(uhat, check_domain=True)
        tail = _alpha_combo(sigma)
    else:
        full = lambda lam: uhat(-np.asarray(lam, dtype=complex))
        tail = lambda lam: sigma(-np.asarray(lam, dtype=complex))

    if _tail_expansion_trivial(p.u0, terms):
        # no expansion to subtract; tilt the wedge tails toward the real
        # axis so the time factor decays.  The heat combination uhat(-lam)
        # stays in the transform's half-plane under the tilt; the cubic
        # one needs the upward continuation.
        if p.pde == "heat":
            return _split_term(build, full, None, split, geo.rotation, config)
        if p.u0.transform_upper_ok:
            full = _alpha_combo(uhat)  # tilted args leave the wedge
            delta = _cubic_tilt(p.u0, t, config)
            return _split_term(build, full, None, split, delta, config)
    return _split_term(build, full, tail, split, None, config)


def _boundary_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    disp = Dispersion(p.pde)
    tol = config.tol
    if p.pde == "kdv":
        coef = lambda lam: 3.0 * lam * lam
    else:
        coef = lambda lam: 2j * lam

    def grouped(lam):
        w = disp.w(lam)
        d = grouped_time_transform(p.g0, w, t, tol)
        for j in range(1, m + 1):
            d = float(p.g0.derivative(j - 1, t)) - w * d
        return d

    g = _grouped_integrand(disp, k, x, t, coef)(grouped)
    geo = _WEDGES[p.pde]
    contour = rotate_rays(geo.contour, geo.rotation)
    return integrate(g, contour, tol, config)


def _forcing_real_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    disp = Dispersion(p.pde)
    tol = config.tol
    terms = _effective_terms(config, disp, k, m)
    f = p.f

    def ftilde_grouped(lam):
        w = disp.w(lam)
        d = grouped_forcing_time_transform(f, lam, w, t, tol)
        if m:
            d = forcing_transform(f, lam, t, tol) - w * d
        return d

    def htilde_grouped(lam):
        w = disp.w(lam)
        d = grouped_forcing_tail_time_transform(f, terms, lam, w, t, tol)
        if m:
            d = forcing_tail_expansion(f, terms, lam, t) - w * d
        return d

    build = _grouped_integrand(disp, k, x, t, _one)
    split = _line_split(_WEDGES[p.pde])
    return _split_term(build, ftilde_grouped, htilde_grouped, split, None, config)


def _forcing_wedge_term(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
) -> QuadratureResult:
    disp = Dispersion(p.pde)
    tol = config.tol
    f = p.f
    build = _grouped_integrand(disp, k, x, t, _one)

    if p.pde == "heat":
        # fhat(-lam, .) is analytic and bounded for lam in the upper
        # half-plane, so the whole wedge rotates toward the real axis.
        def grouped(lam):
            lam = np.asarray(lam, dtype=complex)
            w = disp.w(lam)
            d = grouped_forcing_time_transform(f, -lam, w, t, tol)
            if m:
                d = forcing_transform(f, -lam, t, tol) - w * d
            return d

        geo = _WEDGES[p.pde]
        contour = rotate_rays(geo.contour, geo.rotation)
        return integrate(build(grouped), contour, tol, config)

    terms = _effective_terms(config, disp, k, m)

    def gf(mu):
        mu = np.asarray(mu, dtype=complex)
        return grouped_forcing_time_transform(f, mu, disp.w(mu), t, tol)

    def gf_tail(mu):
        mu = np.asarray(mu, dtype=complex)
        return grouped_forcing_tail_time_transform(f, terms, mu, disp.w(mu), t, tol)

    full0 = _alpha_combo(gf, check_domain=True)
    tail0 = _alpha_combo(gf_tail)
    if m:
        fhat_combo = _alpha_combo(lambda mu: forcing_transform(f, mu, t, tol))
        hm_combo = _alpha_combo(lambda mu: forcing_tail_expansion(f, terms, mu, t))
        full = lambda lam: fhat_combo(lam) - disp.w(lam) * full0(lam)
        tail = lambda lam: hm_combo(lam) - disp.w(lam) * tail0(lam)
    else:
        full, tail = full0, tail0
    split = _wedge_split(_WEDGES[p.pde])
    return _split_term(build, full, tail, split, None, config)


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def _validate(p: ProblemSpec, k: int, m: int, x: float, t: float):
    if x <= 0 or t <= 0:
        raise InvalidParameterError(
            "the representation is defined for x > 0, t > 0; boundary values "
            "are obtained as limits"
        )
    if k < 0 or m < 0:
        raise UnsupportedOrderError("derivative orders must be nonnegative")
    order = 2 if p.pde == "heat" else 3
    if k + order * m > _MAX_ORDER:
        raise UnsupportedOrderError(
            f"k + {order}*m = {k + order * m} exceeds max order {_MAX_ORDER}"
        )
    if m > 1 and not p.f.is_zero():
        raise UnsupportedOrderError(
            "time-derivative orders above 1 require zero forcing (the forcing "
            "terms implement one time derivative, d/dt G = fhat - w G)"
        )


def _raw_terms(
    p: ProblemSpec, k: int, m: int, x: float, t: float, config: SolverConfig
):
    _validate(p, k, m, x, t)

    if p.u0.is_zero():
        init_line = init_wedge = ZERO_RESULT
    else:
        stabilized = p.pde == "kdv" or x >= _STABILIZE_THRESHOLD_HEAT
        init_line = _initial_real_term(p, k, m, x, t, config, stabilized)
        init_wedge = _initial_wedge_term(p, k, m, x, t, config)

    if p.g0.is_zero():
        boundary = ZERO_RESULT
    else:
        boundary = _boundary_term(p, k, m, x, t, config)

    if p.f.is_zero():
        force_line = force_wedge = ZERO_RESULT
    else:
        force_line = _forcing_real_term(p, k, m, x, t, config)
        force_wedge = _forcing_wedge_term(p, k, m, x, t, config)

    return init_line, init_wedge, boundary, force_line, force_wedge


def _signs(pde: str) -> tuple:
    if pde == "kdv":
        return (1.0, 1.0, -1.0, 1.0, 1.0)
    return (1.0, -1.0, -1.0, 1.0, -1.0)


def _assemble(p, k, m, x, t, config) -> FieldSample:
    results = _raw_terms(p, k, m, x, t, config)
    signs = _signs(p.pde)
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


def kdv_solve(p, x, t, config=DEFAULT_CONFIG) -> FieldSample:
    if p.pde != "kdv":
        raise InvalidParameterError("kdv_solve needs a kdv problem")
    return solve(p, x, t, config)


def heat_solve(p, x, t, config=DEFAULT_CONFIG) -> FieldSample:
    if p.pde != "heat":
        raise InvalidParameterError("heat_solve needs a heat problem")
    return solve(p, x, t, config)


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


def kdv_terms(p, x, t, config=DEFAULT_CONFIG) -> tuple:
    """The five unsigned cubic-family terms (line, wedge, boundary,
    forcing line, forcing wedge); the solution is
    (T1 + T2 - T3 + T4 + T5) / (2 pi)."""
    if p.pde != "kdv":
        raise InvalidParameterError("kdv_terms needs a kdv problem")
    return tuple(r.value for r in _raw_terms(p, 0, 0, x, t, config))


def heat_terms(p, x, t, config=DEFAULT_CONFIG) -> tuple:
    """The five unsigned heat-family terms; the solution is
    (T1 - T2 - T3 + T4 - T5) / (2 pi)."""
    if p.pde != "heat":
        raise InvalidParameterError("heat_terms needs a heat problem")
    return tuple(r.value for r in _raw_terms(p, 0, 0, x, t, config))


def stabilized_real_line_term(
    p: ProblemSpec,
    k: int,
    m: int,
    x: float,
    t: float,
    which: str = "initial",
    config: SolverConfig = DEFAULT_CONFIG,
) -> complex:
    """The real-line term evaluated through the subtracted four-piece
    decomposition (central + subtracted tails + verticals + tilted far
    wedge).  ``which`` selects the initial-datum or forcing term."""
    _validate(p, k, m, x, t)
    if which == "initial":
        if p.u0.is_zero():
            return 0j
        return _initial_real_term(p, k, m, x, t, config, True).value
    if which == "forcing":
        if p.f.is_zero():
            return 0j
        return _forcing_real_term(p, k, m, x, t, config).value
    raise InvalidParameterError("which must be 'initial' or 'forcing'")


def direct_real_line_term(
    p: ProblemSpec,
    k: int,
    m: int,
    x: float,
    t: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> complex:
    """Independent evaluation of the initial-datum real-line term without
    the tail subtraction.

    heat: brute adaptive quadrature on the real line (the Gaussian time
    factor supplies decay).  cubic: the time factor is purely oscillatory
    on the real line, so the tails are Cauchy-deformed onto slightly
    tilted rays instead; this requires a transform with a closed-form
    continuation just above the real axis.
    """
    _validate(p, k, m, x, t)
    disp = Dispersion(p.pde)
    if p.u0.is_zero():
        return 0j
    tol = config.tol
    build = _data_integrand(disp, k, m, x, t)
    uhat = lambda lam: half_line_fourier(p.u0, lam, tol)

    if p.pde == "heat":
        return integrate(build(uhat), contours.real_line(), tol, config).value

    if p.u0.transform is None:
        raise OutOfDomainError(
            "direct cubic-family evaluation needs a continuable transform"
        )
    geo = _WEDGES[p.pde]
    cfg = config.with_tol(tol / 2)
    return _split_term(build, uhat, None, _line_split(geo), geo.rotation, cfg).value


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
