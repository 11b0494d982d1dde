"""Adaptive contour quadrature.

The engine integrates complex-valued integrands along the contours of
:mod:`utmqp.contours` with a nested Gauss-Kronrod (G7, K15) pair per
panel, bisecting the worst panels until the summed error estimate drops
below the requested absolute tolerance.

Two features matter for the integrands this package produces:

* **Oscillation-capped panels.**  Factors like e^{i lambda x - w(lambda) t}
  oscillate arbitrarily fast along a contour.  An integrand may declare a
  local phase-density |d(phase)/d(lambda)|; panels are pre-split so the
  accumulated phase per panel stays below a cap, which keeps the G7/K15
  error estimate honest without adaptive thrash.

* **Principled ray truncation.**  Infinite rays are cut at a radius R
  certified either from a caller-supplied decay envelope (tail integral
  below tol/10) or by a probe-doubling fallback.

Evaluators must be vectorized: they receive an ndarray of contour points
and return an ndarray of integrand values.

Determinism: panels are summed in contour order (segment by segment,
ascending parameter), so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .contours import Contour, Ray
from .errors import AccuracyError, InvalidContourError, TruncationError

# 15-point Kronrod nodes with the embedded 7-point Gauss rule.
# Gauss weights are zero at the Kronrod-only nodes.
_GK_NODES = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_K15_WEIGHTS = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.10479001032225018,
        0.14065325971552592,
        0.16900472663926790,
        0.19035057806478541,
        0.20443294007529889,
        0.20948214108472782,
        0.20443294007529889,
        0.19035057806478541,
        0.16900472663926790,
        0.14065325971552592,
        0.10479001032225018,
        0.06309209262997855,
        0.02293532201052922,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.0,
        0.12948496616886969,
        0.0,
        0.27970539148927667,
        0.0,
        0.38183005050511894,
        0.0,
        0.41795918367346939,
        0.0,
        0.38183005050511894,
        0.0,
        0.27970539148927667,
        0.0,
        0.12948496616886969,
        0.0,
    ]
)

# max accumulated phase of e^{i lambda x - w t} per pre-split panel
_PHASE_CAP = 8.0 * math.pi
# hard cap for ray truncation searches
_R_MAX = 1e6

_GL_CACHE: dict = {}


def _gauss_legendre(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1],
    built once per n.  Concurrent first calls may both build the rule;
    they store identical arrays."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


@dataclass
class Integrand:
    """A complex integrand with optional decay/oscillation metadata.

    evaluator        vectorized map ndarray[complex] -> ndarray[complex]
    decay_envelope   optional upper bound for |evaluator(lambda(s))| as a
                     function of the ray parameter s (used for truncation)
    phase_density    optional |d(phase)/d(lambda)| estimate, vectorized,
                     used to pre-split panels on oscillatory stretches
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    decay_envelope: Optional[Callable[[float], float]] = None
    phase_density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(lam), dtype=complex)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            self.value + other.value,
            self.error_estimate + other.error_estimate,
            self.evaluations + other.evaluations,
        )


ZERO_RESULT = QuadratureResult(0j, 0.0, 0)


def ray_truncation(
    g: Integrand,
    ray: Ray,
    tol: float,
    r_max: float = _R_MAX,
) -> float:
    """Truncation radius R for an infinite ray.

    With a decay envelope E(s): find R such that the estimated tail
    integral E(R)/c(R) (c the local exponential rate of E, floored at 1/R)
    is below tol/10, bracketing by doubling and tightening by bisection.

    Without an envelope: double R until |g| is below tol/(10 R) at three
    consecutive probe radii; probing uses the max of |g| at three nearby
    points to dodge accidental zeros of oscillatory integrands.
    """
    threshold = tol / 10.0

    if g.decay_envelope is not None:
        env = g.decay_envelope

        def tail(r: float) -> float:
            e0 = env(r)
            if e0 <= 0.0 or e0 == math.inf:
                return e0
            e1 = env(r * 1.01)
            rate = 0.0
            if e1 > 0.0 and e1 < e0:
                rate = math.log(e0 / e1) / (0.01 * r)
            rate = max(rate, 1.0 / r)
            return e0 / rate

        r, certified = 1.0, True
        while tail(r) > threshold:
            r *= 2.0
            if r > r_max:
                certified = False  # envelope too pessimistic; try probes
                break
        if certified:
            lo, hi = r / 2.0, r
            if tail(lo) <= threshold:
                hi = lo
                lo = max(lo / 2.0, 1e-3)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if tail(mid) > threshold:
                    lo = mid
                else:
                    hi = mid
            return hi

    def probe(r: float) -> float:
        s = np.array([r, r * 1.043, r * 1.107])
        vals = np.abs(g(ray.point(s)))
        return float(np.max(vals))

    r = 8.0
    consecutive = 0
    first_pass = None
    while r <= r_max:
        if probe(r) < threshold / r:
            consecutive += 1
            if first_pass is None:
                first_pass = r
            if consecutive == 3:
                return first_pass
        else:
            consecutive = 0
            first_pass = None
        r *= 2.0
    raise TruncationError(
        "probe doubling reached r_max without certifying ray decay"
    )


# probe radii of power_law_envelope's fit
_ENVELOPE_PROBES = (4.0, 8.0, 16.0, 32.0)


def power_law_envelope(g: Integrand, ray: Ray) -> Optional[Callable[[float], float]]:
    """Calibrate a C*s^-p envelope for an algebraically decaying tail by
    probing |g| along the ray at ``_ENVELOPE_PROBES``; the fitted bound is
    inflated by 2x.  It is infinite inside the first probe radius, where
    the fit says nothing: a fast-decaying tail can sit at the roundoff
    floor at every probe.

    Returns None when no usable power law emerges (p <= 1.05, or decay
    faster than the probes can pin down); callers then fall back to the
    probe-doubling truncation rule, which handles superalgebraic decay.
    """

    def probe(r: float) -> float:
        s = np.array([r, r * 1.037, r * 1.113])
        return float(np.max(np.abs(g(ray.point(s)))))

    rs = np.asarray(_ENVELOPE_PROBES, dtype=float)
    vals = np.array([probe(r) for r in rs])
    first = rs[0]
    if np.all(vals == 0.0):
        return lambda s: 0.0 if s >= first else math.inf
    mask = vals > 0
    if mask.sum() < 3:
        return None
    logs, logv = np.log(rs[mask]), np.log(vals[mask])
    p = -np.polyfit(logs, logv, 1)[0]
    if p <= 1.05 or p >= 60.0:
        # no power law: flat-ish tails go to the probe-doubling rule, and
        # super-steep falloff certifies trivially there as well
        return None
    c = 2.0 * float(np.max(vals * rs**p))
    return lambda s: c * s ** (-p) if s >= first else math.inf


def _gk_panels(f_vals: np.ndarray, vel: np.ndarray, half: np.ndarray):
    """Kronrod value, |K15-G7| error and L1 magnitude for a panel batch.

    f_vals, vel: (n_panels, 15) integrand and lambda'(s) samples;
    half: (n_panels,) panel half-widths in s.  The L1 magnitude feeds a
    roundoff floor: a panel whose error estimate is at machine-epsilon
    level relative to its own mass cannot be improved by splitting.
    """
    prod = f_vals * vel
    k15 = (prod * _K15_WEIGHTS).sum(axis=1) * half
    g7 = (prod * _G7_WEIGHTS).sum(axis=1) * half
    l1 = (np.abs(prod) * _K15_WEIGHTS).sum(axis=1) * half
    return k15, np.abs(k15 - g7), l1


def _initial_panels(g: Integrand, seg, s0: float, s1: float, cfg: SolverConfig):
    """Uniform pre-split of [s0, s1] so the accumulated phase per panel
    stays below the phase cap."""
    n = 1
    if g.phase_density is not None:
        ss = np.linspace(s0, s1, 65)
        lam = seg.point(ss)
        rate = np.asarray(g.phase_density(lam), dtype=float) * np.abs(
            seg.velocity(ss)
        )
        total_phase = float(np.trapezoid(rate, ss))
        n = max(1, min(int(math.ceil(total_phase / _PHASE_CAP)), cfg.max_panels // 2))
    n = max(n, 2)
    edges = np.linspace(s0, s1, n + 1)
    return edges[:-1], edges[1:]


def _integrate_segment(
    g: Integrand, seg, s0: float, s1: float, tol: float, cfg: SolverConfig
):
    if s1 <= s0:
        return ZERO_RESULT

    evaluations = 0

    def evaluate(a: np.ndarray, b: np.ndarray):
        nonlocal evaluations
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        ss = mid[:, None] + half[:, None] * _GK_NODES[None, :]
        lam = seg.point(ss.ravel())
        vals = g(lam).reshape(ss.shape)
        if not np.all(np.isfinite(vals)):
            raise InvalidContourError(
                "integrand is not finite on the contour (singular point hit?)"
            )
        vel = seg.velocity(ss.ravel()).reshape(ss.shape)
        evaluations += ss.size
        return _gk_panels(vals, vel, half)

    def result() -> QuadratureResult:
        # panels summed in ascending parameter order, for determinism
        order = np.argsort(a, kind="stable")
        return QuadratureResult(
            complex(values[order].sum()), float(errors.sum()), evaluations
        )

    a, b = _initial_panels(g, seg, s0, s1, cfg)
    values, errors, masses = evaluate(a, b)

    stalled = 0
    best_total = math.inf
    while float(errors.sum()) > tol:
        # panels whose error sits at the roundoff floor of their own mass
        # cannot be improved by splitting
        floors = 250.0 * np.finfo(float).eps * masses
        refinable = errors > floors
        if not np.any(refinable):
            break
        if stalled >= 3:
            if float(errors.sum()) <= 100.0 * tol:
                # the estimate stopped improving near the tolerance: it is
                # dominated by the roundoff noise of the |K15 - G7|
                # comparison; report it honestly and stop
                break
            best = result()
            raise AccuracyError(
                f"refinement stalled at err {best.error_estimate:.3e} "
                f"(tol {tol:.3e}); integrand may be singular on the contour",
                best=best,
            )
        if len(a) >= cfg.max_panels:
            best = result()
            raise AccuracyError(
                f"panel budget {cfg.max_panels} exhausted "
                f"(err {best.error_estimate:.3e} > tol {tol:.3e})",
                best=best,
            )
        # split the worst offenders: every refinable panel holding more
        # than its share of the excess, but at least the single worst one
        share = max(float(errors[refinable].max()) * 0.25, tol / max(len(a), 1))
        split = refinable & (errors >= share)
        if not np.any(split):
            idx = np.argmax(np.where(refinable, errors, -1.0))
            split[idx] = True
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mid])
        new_b = np.concatenate([b[keep], mid, b[split]])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_vals, child_errs, child_mass = evaluate(child_a, child_b)
        values = np.concatenate([values[keep], child_vals])
        errors = np.concatenate([errors[keep], child_errs])
        masses = np.concatenate([masses[keep], child_mass])
        a, b = new_a, new_b
        total = float(errors.sum())
        if total < 0.90 * best_total:
            best_total = total
            stalled = 0
        else:
            stalled += 1

    return result()


def integrate(
    g: Integrand,
    contour: Contour,
    tol: float | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate ``g`` along ``contour`` to absolute tolerance ``tol``.

    Raises AccuracyError (carrying the best estimate) if the subdivision
    budget is exhausted, InvalidContourError if the integrand is not finite
    at a quadrature node, TruncationError if an infinite ray cannot be
    truncated.
    """
    tol = config.tol if tol is None else tol
    if not contour.segments:
        return ZERO_RESULT

    seg_tol = tol / len(contour.segments)
    total = ZERO_RESULT
    for seg in contour.segments:
        if seg.finite:
            s0, s1 = 0.0, 1.0
        else:
            s0, s1 = 0.0, ray_truncation(g, seg, seg_tol)
        part = _integrate_segment(g, seg, s0, s1, seg_tol, config)
        part = QuadratureResult(
            seg.orientation * part.value, part.error_estimate, part.evaluations
        )
        total = total + part
    return total
