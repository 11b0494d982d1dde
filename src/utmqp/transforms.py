"""Spectral transforms of the problem data.

Conventions (lambda complex, Im lambda <= 0 unless the profile's
transform continues further):

    uhat(lam)      = integral_0^inf e^{-i lam y} u0(y) dy
    fhat(lam, t)   = integral_0^inf e^{-i lam y} f(y, t) dy
    gtilde(w, t)   = integral_0^t e^{+w tau} g0(tau) d tau
    ftilde(lam, w, t) = integral_0^t e^{+w tau} fhat(lam, tau) d tau

uhat is always the profile's own ``transform``: the closed forms, or the
bump's Gauss-Legendre rule over its support.  A spatial datum is a
profile with a transform; there is no generic half-line quadrature.

The time transforms appear in the solution formulas only in the grouped
combination e^{-w t} * gtilde(w, t) = integral_0^t e^{-w (t-tau)} g0 d tau,
which is bounded wherever Re w >= 0; the grouped form is what every
internal consumer uses, so no factor e^{+w tau} with large positive real
part is ever materialized on its own.

Both dispersion families are driven through an explicit decay rate w:
the quadratic family uses the time factor e^{-lam^2 t} (w = lam^2), the
cubic family e^{-w(lam) t} with w(lam) = -i lam^3.  Keeping w explicit
avoids the sign confusion between the two conventions.

``tail_expansion`` is the M-term large-lambda expansion of uhat built
from the derivatives of u0 at the origin,

    sum_{j=1..M} u0^(j-1)(0) / (i lam)^j,

whose subtraction leaves a remainder O(lam^-(M+1)); the forcing analogue
``forcing_tail_expansion`` does the same for fhat at fixed t.  No solver
path subtracts them: :mod:`utmqp.solvers` integrates every forcing
integrand whole.

A forcing is separable, f = xp(x) tp(t) (``ForcingProfile.factors``), so
each forcing transform is a transform of xp -- uhat_xp or its tail
expansion -- times tp(t) or the grouped time transform of tp.  The four
forcing helpers below are the library forms of fhat and ftilde built that
way; the solver composes the transforms of xp and tp itself, so that the
time transform of tp is computed once per w.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import OutOfDomainError, SingularArgumentError
from .profiles import DataProfile, ForcingProfile
from .quadrature import _gauss_legendre


def _time_panels(w_arr, t: float):
    """(nodes, weights) of 24-point Gauss-Legendre panels on nu in [0, t],
    doubling in width away from nu = 0 from a first width that resolves
    the boundary layer of width 1/max Re w."""
    rate = float(np.max(np.clip(w_arr.real, 0.0, None)))
    edges = [0.0]
    width = min(t, 1.0 / (rate + 1.0 / t))
    nu = 0.0
    while nu < t:
        nxt = min(t, nu + width)
        edges.append(nxt)
        nu = nxt
        width *= 2.0
    nodes, weights = _gauss_legendre(24)
    for a, b in zip(edges[:-1], edges[1:]):
        yield 0.5 * (b - a) * (nodes + 1.0) + a, 0.5 * (b - a) * weights


def half_line_fourier(u0: DataProfile, lam):
    """uhat(lam) for Im lam <= 0, or anywhere the profile's transform
    continues it (``transform_upper_ok``).

    Every spatial datum carries its own transform; a profile without one
    (a time-only profile) raises OutOfDomainError.  Accepts a scalar or an
    ndarray of spectral points.
    """
    if u0.transform is None:
        raise OutOfDomainError(
            f"profile {u0.name!r} has no half-line transform: it is not a "
            "spatial datum"
        )
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.asarray(u0.transform(lam_arr), dtype=complex)
    return out if np.ndim(lam) else complex(out[0])


def tail_expansion(u0: DataProfile, terms: int, lam):
    """M-term large-lambda expansion of the half-line transform of u0.

    Requires lam != 0 and terms >= 1.
    """
    if terms < 1:
        raise SingularArgumentError("tail expansion needs at least one term")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    if np.any(lam_arr == 0):
        raise SingularArgumentError("tail expansion is singular at lambda = 0")
    inv = 1.0 / (1j * lam_arr)
    out = np.zeros_like(lam_arr)
    power = inv.copy()
    for j in range(1, terms + 1):
        out += float(u0.derivative(j - 1, 0.0)) * power
        power = power * inv
    return out if np.ndim(lam) else complex(out[0])


def grouped_time_transform(g0: DataProfile, w, t: float, tol: float | None = None):
    """integral_0^t e^{-w (t - tau)} g0(tau) d tau, vectorized over w.

    Uses the profile's closed form when available; otherwise composite
    quadrature in nu = t - tau with geometric refinement toward nu = 0 so
    boundary layers of width 1/Re(w) are resolved.
    """
    tol = DEFAULT_CONFIG.tol if tol is None else tol
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    if t < 0:
        raise OutOfDomainError("time transform requires t >= 0")
    if t == 0:
        out = np.zeros_like(w_arr)
        return out if np.ndim(w) else complex(out[0])
    if g0.grouped_time_transform is not None:
        out = np.asarray(g0.grouped_time_transform(w_arr, t), dtype=complex)
        return out if np.ndim(w) else complex(out[0])

    # generic path: geometric panels in nu = t - tau, resolved per max Re w
    out = np.zeros_like(w_arr)
    for nu_nodes, wq in _time_panels(w_arr, t):
        g_vals = np.asarray(g0(t - nu_nodes), dtype=complex)
        out += (np.exp(-np.outer(w_arr, nu_nodes)) * (g_vals * wq)[None, :]).sum(axis=1)
    return out if np.ndim(w) else complex(out[0])


def forcing_transform(f: ForcingProfile, lam, t: float):
    """fhat(lam, t) = uhat_xp(lam) tp(t), vectorized over lam."""
    xp, tp = f.factors
    return half_line_fourier(xp, lam) * tp(t)


def _times_grouped_tp(spatial, tp: DataProfile, w, t: float, tol):
    """spatial * integral_0^t e^{-w(t-tau)} tp(tau) d tau, with w
    broadcast to the shape of ``spatial``."""
    w_arr = np.broadcast_to(np.asarray(w, dtype=complex), np.shape(spatial))
    return spatial * grouped_time_transform(tp, w_arr, t, tol)


def grouped_forcing_time_transform(
    f: ForcingProfile, lam, w, t: float, tol: float | None = None
):
    """e^{-w t} ftilde(lam, w, t) = integral_0^t e^{-w(t-tau)} fhat(lam, tau) d tau
    = uhat_xp(lam) times the grouped time transform of tp.

    lam and w must broadcast against each other.
    """
    xp, tp = f.factors
    return _times_grouped_tp(half_line_fourier(xp, lam), tp, w, t, tol)


def forcing_tail_expansion(f: ForcingProfile, terms: int, lam, t: float):
    """M-term large-lambda expansion of fhat(., t) for a separable forcing
    f = xp(x) tp(t): sum_j xp^(j-1)(0) tp(t) / (i lam)^j."""
    xp, tp = f.factors
    return tail_expansion(xp, terms, lam) * tp(t)


def grouped_forcing_tail_time_transform(
    f: ForcingProfile, terms: int, lam, w, t: float, tol: float | None = None
):
    """e^{-w t} htilde_M(lam, w, t): the grouped time transform of the
    forcing tail expansion.  For f = xp(x) tp(t) it factors into the tail
    expansion of xp times the grouped time transform of tp, so the time
    transform is computed once whatever the number of terms.  lam and w
    must broadcast against each other."""
    xp, tp = f.factors
    return _times_grouped_tp(tail_expansion(xp, terms, lam), tp, w, t, tol)
