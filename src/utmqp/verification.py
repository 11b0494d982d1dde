"""Independent verification of the solver's analytical properties.

The two oracles are deliberately decoupled from the contour machinery;
the other checks probe the solver's own fields:

* ``heat_oracle``    -- classical image-kernel solution of the half-line
  heat problem (Gauss kernel images + boundary kernel + Duhamel term).
* ``kdv_fd_oracle``  -- implicit finite-difference solution of the cubic
  problem on a truncated domain (``heat`` variant included).
* ``pde_residual``   -- centered finite-difference residual of any field.
* ``boundary_recovery`` / ``decay_supremum`` / ``energy_trace`` -- probe
  the limit clauses, the uniform spatial decay, and the energy
  dissipation identity that underpins uniqueness, the last with dE/dt
  and the fluxes from the representation's exact derivatives.

Reports are plain dataclasses: measured magnitudes, thresholds, and a
pass flag that is a pure function of the two.  The recovery probes and
threshold and the energy identity's slope point are module constants of
the checks, not arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.sparse import lil_matrix, identity, csc_matrix
from scipy.sparse.linalg import splu

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InvalidParameterError
from .profiles import ProblemSpec
from .solvers import solve, solve_derivative
from .quadrature import _gauss_legendre


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    name: str
    grid: str
    measured: dict
    thresholds: dict
    passed: bool


@dataclass
class EnergyTrace:
    t_grid: tuple
    energies: tuple
    fluxes: tuple  # U_x(0+, t)^2 (cubic) or 2*int U_x^2 (heat)
    dE_dt: tuple
    identity_residuals: tuple
    monotone: bool

    def max_relative_residual(self) -> float:
        return max(
            abs(r) / max(abs(d), 1.0)
            for r, d in zip(self.identity_residuals, self.dE_dt)
        )


# ---------------------------------------------------------------------------
# finite-difference stencils (Fornberg weights)
# ---------------------------------------------------------------------------


def fd_weights(order: int, grid: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at x0 on ``grid``."""
    n = len(grid)
    if order >= n:
        raise InvalidParameterError("stencil too short for requested order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, grid[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, grid[i] - x0
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def pde_residual(
    field: Callable,
    pde: str,
    x: float,
    t: float,
    h: float,
    forcing: Optional[Callable] = None,
) -> float:
    """Centered finite-difference residual of ``field`` at (x, t):
    heat U_t - U_xx - f, cubic U_t + U_xxx - f."""
    if pde == "heat":
        if x - h <= 0 or t - h <= 0:
            raise InvalidParameterError("stencil leaves the quadrant")
        ut = (field(x, t + h) - field(x, t - h)) / (2.0 * h)
        uxx = (field(x + h, t) - 2.0 * field(x, t) + field(x - h, t)) / (h * h)
        res = ut - uxx
    elif pde == "kdv":
        if x - 2 * h <= 0 or t - h <= 0:
            raise InvalidParameterError("stencil leaves the quadrant")
        ut = (field(x, t + h) - field(x, t - h)) / (2.0 * h)
        uxxx = (
            field(x + 2 * h, t)
            - 2.0 * field(x + h, t)
            + 2.0 * field(x - h, t)
            - field(x - 2 * h, t)
        ) / (2.0 * h**3)
        res = ut + uxxx
    else:
        raise InvalidParameterError(f"unknown pde {pde!r}")
    if forcing is not None:
        res -= forcing(x, t)
    return float(res)


# ---------------------------------------------------------------------------
# image-kernel oracle for the heat problem
# ---------------------------------------------------------------------------


def _panel_integral(func, a: float, b: float) -> float:
    """24-point Gauss-Legendre on [a, b]."""
    nodes, weights = _gauss_legendre(24)
    xs = 0.5 * (b - a) * (nodes + 1.0) + a
    return 0.5 * (b - a) * float(np.dot(weights, func(xs)))


def _adaptive_interval(func, a: float, b: float, tol: float, depth: int = 0) -> float:
    coarse = _panel_integral(func, a, b)
    fine = _panel_integral(func, a, 0.5 * (a + b)) + _panel_integral(
        func, 0.5 * (a + b), b
    )
    if abs(fine - coarse) <= tol or depth >= 14:
        return fine
    mid = 0.5 * (a + b)
    return _adaptive_interval(func, a, mid, tol / 2, depth + 1) + _adaptive_interval(
        func, mid, b, tol / 2, depth + 1
    )


def _image_kernel_integral(h, x: float, nu: float, tol: float) -> float:
    """int_0^inf [K(x-y, nu) - K(x+y, nu)] h(y) dy.  Writing y = +-x +
    2 sqrt(nu) z turns each kernel into e^{-z^2}/sqrt(pi), so the narrow
    peak at y = x becomes a unit Gaussian weight however small nu is."""
    root = 2.0 * math.sqrt(nu)

    def direct(z):
        return np.exp(-z * z) * h(x + root * z) / math.sqrt(math.pi)

    def image(z):
        return np.exp(-z * z) * h(-x + root * z) / math.sqrt(math.pi)

    val = _adaptive_interval(direct, max(-x / root, -9.0), 9.0, tol)
    if x / root < 9.0:
        val -= _adaptive_interval(image, x / root, 9.0, tol)
    return val


def heat_oracle(
    p: ProblemSpec, x: float, t: float, tol: float = 1e-10
) -> float:
    """Classical solution of the half-line heat problem:

        U = int_0^inf [K(x-y,t) - K(x+y,t)] u0(y) dy
          + (2/sqrt(pi)) int_{x/(2 sqrt t)}^inf e^{-s^2} g0(t - x^2/(4 s^2)) ds
          + int_0^t int_0^inf [K(x-y,t-s) - K(x+y,t-s)] f(y,s) dy ds

    with K the Gauss kernel.  The boundary integral is the image of
    int_0^t x/sqrt(4 pi (t-s)^3) e^{-x^2/(4(t-s))} g0(s) ds under
    s -> t - x^2/(4 sigma^2), which removes the kernel's near-boundary
    spike.  The initial part and each inner Duhamel integral absorb the
    kernel into a unit Gaussian (``_image_kernel_integral``).
    """
    if p.pde != "heat":
        raise InvalidParameterError("heat_oracle needs a heat problem")
    if x <= 0 or t <= 0:
        raise InvalidParameterError("oracle defined for x > 0, t > 0")
    total = 0.0

    if not p.u0.is_zero():
        total += _image_kernel_integral(p.u0, x, t, tol)

    if not p.g0.is_zero():
        s0 = x / (2.0 * math.sqrt(t))

        def boundary_part(sig):
            return np.exp(-sig * sig) * p.g0(t - x * x / (4.0 * sig * sig))

        # g0's argument climbs from 0 to ~t across a layer of width ~s0 at
        # the lower limit; breakpoints s0 2^j up to 1 resolve any small x
        edges = [s0]
        while edges[-1] < 1.0:
            edges.append(min(2.0 * edges[-1], 1.0))
        edges.append(s0 + 9.0)
        total += (2.0 / math.sqrt(math.pi)) * sum(
            _adaptive_interval(boundary_part, a, b, tol)
            for a, b in zip(edges[:-1], edges[1:])
        )

    if not p.f.is_zero():
        # with nu = t - s the nu-integrand is smooth down to nu = 0, where
        # it tends to f(x, t)
        def duhamel_outer(nus):
            return np.array([
                _image_kernel_integral(
                    lambda y: p.f(y, t - nu), x, max(nu, 1e-300), tol
                )
                for nu in nus
            ])

        total += _adaptive_interval(duhamel_outer, 0.0, t, tol)

    return total


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass
class FDSolution:
    """Grid solution of the truncated-domain problem with a Richardson
    error estimate from a coarse companion run."""

    pde: str
    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray  # shape (len(ts), len(xs))
    richardson_error: float
    energy_monotone: bool

    def __call__(self, x: float, t: float) -> float:
        # separable cubic interpolation on the tensor grid
        col = _cubic_1d(self.xs, self.values, x)  # (len(ts),)
        return float(_cubic_1d(self.ts, col, t))


def _cubic_1d(xs: np.ndarray, ys: np.ndarray, x: float):
    n = len(xs)
    i = int(np.clip(np.searchsorted(xs, x) - 1, 1, n - 3))
    sel = slice(i - 1, i + 3)
    w = np.array(
        [
            np.prod([(x - xs[sel][m]) / (xs[sel][j] - xs[sel][m]) for m in range(4) if m != j])
            for j in range(4)
        ]
    )
    return ys[..., sel] @ w


# weight of the cubic scheme's fourth-difference damping (see below)
_FD_DAMPING = 0.05


def _build_spatial_operator(pde: str, n: int, h: float):
    """Matrix A for (d/dt)U = A U + bcol*g0(t) + f on interior nodes 1..n
    (node 0 is the boundary), with one-sided second-order closures.

    heat:  A ~ d^2/dx^2.
    cubic: A ~ -d^3/dx^3 - _FD_DAMPING*h^3*D4, where D4 is the fourth
    difference.  Centered dispersive stencils radiate parasitic sawtooth
    (2 dx) modes that pollute boundary gradients; the O(h^3)-consistent
    fourth-difference term damps them without breaking the scheme's
    second-order convergence.
    """
    A = lil_matrix((n, n))
    bcol = np.zeros(n)

    def add(stencil_offsets, weights, scale):
        for i in range(n):
            offs, w = stencil_offsets(i), weights(i)
            for off, coef in zip(offs, w):
                j = i + off
                if j == -1:
                    bcol[i] += scale * coef
                elif 0 <= j < n:
                    A[i, j] += scale * coef
                # j >= n or j < -1: artificial zeros beyond the cuts, drop

    if pde == "heat":
        w2 = fd_weights(2, np.arange(-1, 2) * h)
        add(lambda i: (-1, 0, 1), lambda i: w2, +1.0)
        return A.tocsc(), bcol

    w_c = fd_weights(3, np.arange(-2, 3) * h)
    w_skew = fd_weights(3, np.arange(-1, 4) * h)
    add(
        lambda i: (-1, 0, 1, 2, 3) if i == 0 else (-2, -1, 0, 1, 2),
        lambda i: w_skew if i == 0 else w_c,
        -1.0,
    )
    d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h**4
    add(lambda i: (-2, -1, 0, 1, 2), lambda i: d4, -_FD_DAMPING * h**3)
    return A.tocsc(), bcol


def kdv_fd_oracle(
    p: ProblemSpec,
    L: float = 30.0,
    nx: int = 1500,
    nt: int = 1000,
    T: float = 1.0,
) -> FDSolution:
    """Crank-Nicolson solution of the truncated-domain problem.

    cubic:  U_t = -U_xxx + f, U(0,t) = g0, artificial U = U_x = 0 at x = L
    heat:   U_t = +U_xx + f,  U(0,t) = g0, artificial U = 0 at x = L

    The artificial conditions are justified by the spatial decay of the
    data; the Richardson estimate from a half-resolution companion run
    quantifies the combined truncation error.
    """
    pde = p.pde

    def run(nx_run: int, nt_run: int):
        h = L / nx_run
        dt = T / nt_run
        xs = np.linspace(0.0, L, nx_run + 1)
        # unknowns: nodes 1..n_int; enforce U = 0 at the last one (cubic
        # keeps one extra zero row via the stencil drop, giving U_x ~ 0)
        n_int = nx_run - 1
        A, bcol = _build_spatial_operator(pde, n_int, h)
        I = identity(n_int, format="csc")
        lhs = splu(csc_matrix(I - 0.5 * dt * A))
        rhs_mat = I + 0.5 * dt * A

        U = np.asarray(p.u0(xs[1 : n_int + 1]), dtype=float)
        vals = np.empty((nt_run + 1, nx_run + 1))
        vals[0, 0] = float(p.g0(0.0))
        vals[0, 1 : n_int + 1] = U
        vals[0, -1] = 0.0
        energies = [float(np.sum(U * U) * h)]
        forcing_zero = p.f.is_zero()
        xs_int = xs[1 : n_int + 1]
        for step in range(nt_run):
            t_old = step * dt
            t_new = (step + 1) * dt
            g_old = float(p.g0(t_old))
            g_new = float(p.g0(t_new))
            rhs = rhs_mat @ U + 0.5 * dt * bcol * (g_old + g_new)
            if not forcing_zero:
                rhs = rhs + 0.5 * dt * (
                    np.asarray(p.f(xs_int, t_old), dtype=float)
                    + np.asarray(p.f(xs_int, t_new), dtype=float)
                )
            U = lhs.solve(rhs)
            vals[step + 1, 0] = g_new
            vals[step + 1, 1 : n_int + 1] = U
            vals[step + 1, -1] = 0.0
            energies.append(float(np.sum(U * U) * h))
        ts = np.linspace(0.0, T, nt_run + 1)
        monotone = True
        if p.g0.is_zero() and forcing_zero:
            # nonincreasing up to the scheme's own discretization error;
            # genuine instability violates this by orders of magnitude
            e = np.array(energies)
            slack = 1e-5 * max(e[0], 1.0)
            monotone = bool(np.all(np.diff(e) <= slack))
        return xs, ts, vals, monotone

    xs, ts, vals, monotone = run(nx, nt)
    xs2, ts2, vals2, _ = run(nx // 2, nt // 2)
    # compare on the coarse grid (every other node/step)
    coarse = vals[::2, ::2][: len(ts2), : len(xs2)]
    common_x = min(coarse.shape[1], vals2.shape[1])
    diff = np.abs(coarse[:, :common_x] - vals2[:, :common_x])
    rich = float(diff.max()) / 3.0  # second-order Richardson
    return FDSolution(pde, xs, ts, vals, rich, monotone)


# ---------------------------------------------------------------------------
# limit and decay checks
# ---------------------------------------------------------------------------


# the shrinking x (or t) probes of boundary_recovery, and the final error
# the last probe must reach
_RECOVERY_PROBES = (1e-1, 1e-2, 1e-3)
_RECOVERY_THRESHOLD = 1e-2


def boundary_recovery(
    p: ProblemSpec,
    t_points: Sequence[float] = (0.5, 1.0),
    x_points: Sequence[float] = (0.5, 1.0, 2.0),
    config: SolverConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Check the two limit clauses of the problem statement:
    U(x,t) -> g0(t) as x -> 0+, and U(x,t) -> u0(x) as t -> 0+,
    with monotone improvement along the probe sequence
    ``_RECOVERY_PROBES`` and a final error within ``_RECOVERY_THRESHOLD``."""
    probes, threshold = _RECOVERY_PROBES, _RECOVERY_THRESHOLD
    boundary_errs = []
    for t in t_points:
        errs = [
            abs(solve(p, xp, t, config).value - float(p.g0(t))) for xp in probes
        ]
        boundary_errs.append(errs)
    initial_errs = []
    for x in x_points:
        errs = [
            abs(solve(p, x, tp, config).value - float(p.u0(x))) for tp in probes
        ]
        initial_errs.append(errs)

    def final_and_monotone(err_rows):
        finals = [row[-1] for row in err_rows]
        # allow non-strict decrease once errors are at solver noise level
        mono = all(
            all(row[i + 1] <= row[i] + 1e-9 for i in range(len(row) - 1))
            for row in err_rows
        )
        return max(finals), mono

    b_final, b_mono = final_and_monotone(boundary_errs)
    i_final, i_mono = final_and_monotone(initial_errs)
    passed = b_final <= threshold and i_final <= threshold and b_mono and i_mono
    return VerificationReport(
        name="boundary_recovery",
        grid=f"probes={list(probes)}, t={list(t_points)}, x={list(x_points)}",
        measured={
            "boundary_final_error": b_final,
            "initial_final_error": i_final,
            "boundary_errors": boundary_errs,
            "initial_errors": initial_errs,
            "monotone": b_mono and i_mono,
        },
        thresholds={"final_error": threshold},
        passed=bool(passed),
    )


def decay_supremum(
    p: ProblemSpec,
    k: int,
    m: int,
    ell: int,
    T0: float,
    x_grid: Sequence[float],
    t_min: float = 1e-3,
    n_t: int = 5,
    config: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """sup over the probe grid of |x^ell d^{k+m}U/dx^k dt^m|, per x.

    Returns {"suprema": [...], "overall": float, "decreasing": bool}; the
    t-grid is log-spaced down to t_min to probe uniformity near t = 0.
    """
    ts = np.geomspace(t_min, T0, n_t)
    sup_per_x = []
    for x in x_grid:
        vals = [
            abs(solve_derivative(p, k, m, x, t, config).value) * x**ell for t in ts
        ]
        sup_per_x.append(max(vals))
    decreasing = all(
        sup_per_x[i + 1] < sup_per_x[i] + 1e-12 for i in range(len(sup_per_x) - 1)
    )
    return {
        "suprema": sup_per_x,
        "overall": max(sup_per_x),
        "decreasing": decreasing,
        "finite": all(math.isfinite(v) for v in sup_per_x),
    }


# ---------------------------------------------------------------------------
# energy identity
# ---------------------------------------------------------------------------


def _auto_upper_limit(p: ProblemSpec, t: float, config: SolverConfig) -> float:
    upper = 4.0
    while upper < 512.0:
        if abs(solve(p, upper, t, config).value) ** 2 * upper < 1e-10:
            return upper
        upper *= 2.0
    return upper


# where energy_trace takes the kdv boundary slope: u_x(x) - u_x(0+) is
# x u_xx(0+) + O(x^2), so the gap to the x = 0+ limit is linear in x
_SLOPE_X = 1e-8


def energy_trace(
    p: ProblemSpec,
    T: float,
    n_t: int = 5,
    t_start: float = 0.2,
    config: SolverConfig = DEFAULT_CONFIG,
) -> EnergyTrace:
    """Energy E(t) = int_0^L U^2 dx of a homogeneous-Dirichlet, unforced
    problem and its dissipation identity:

    cubic: dE/dt = -[U_x(0+, t)]^2    heat: dE/dt = -2 int_0^L U_x^2 dx

    U_x and U_t are the representation's exact derivatives
    (``solve_derivative``): dE/dt = 2 int_0^L U U_t dx, with the cubic
    boundary slope taken at x = ``_SLOPE_X``.  L is where U^2 x drops
    below 1e-10 at t = T.  Raises InvalidParameterError unless g0 and f
    are zero.
    """
    if not (p.g0.is_zero() and p.f.is_zero()):
        raise InvalidParameterError("energy_trace needs zero g0 and zero forcing")
    ts = np.linspace(t_start, T, n_t)
    L = _auto_upper_limit(p, ts[-1], config)
    nodes, weights = _gauss_legendre(80)
    xs = 0.5 * L * (nodes + 1.0)

    def field(k: int, m: int, t: float) -> np.ndarray:
        return np.array([solve_derivative(p, k, m, x, t, config).value for x in xs])

    def integral(vals: np.ndarray) -> float:
        return 0.5 * L * float(np.dot(weights, vals))

    energies, fluxes, dE, residuals = [], [], [], []
    for t in ts:
        u = np.array([solve(p, x, t, config).value for x in xs])
        e = integral(u * u)
        dedt = 2.0 * integral(u * field(0, 1, t))
        if p.pde == "kdv":
            flux = solve_derivative(p, 1, 0, _SLOPE_X, t, config).value ** 2
        else:
            flux = 2.0 * integral(field(1, 0, t) ** 2)
        energies.append(e)
        fluxes.append(flux)
        dE.append(dedt)
        residuals.append(dedt + flux)
    monotone = all(d <= 1e-6 * max(abs(energies[0]), 1.0) for d in dE)
    return EnergyTrace(
        tuple(ts), tuple(energies), tuple(fluxes), tuple(dE), tuple(residuals), monotone
    )
