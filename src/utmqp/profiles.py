"""Problem data: initial profiles, boundary profiles, forcings.

Data are closed-form objects with exact derivatives of every order, not
sampled arrays: the corner-compatibility flags and the large-lambda tail
expansions consume exact derivatives at the origin, and the half-line
transforms benefit from closed forms where they exist.

A :class:`DataProfile` plays either role, spatial datum u0(x) or boundary
datum g0(t).  Optional capability hooks:

* ``transform(lam)``          closed-form half-line Fourier transform
                              integral_0^inf e^{-i lam y} u(y) dy
* ``grouped_time_transform(w, t)``   closed form of
                              integral_0^t e^{-w (t - tau)} g(tau) d tau,
  the overflow-safe grouping of e^{-w t} with the time transform.  The
  raw time transform e^{+w t} * grouped is never formed internally.

A forcing is separable, f(x, t) = xp(x) tp(t), and a
:class:`ForcingProfile` is nothing but its factor pair ``factors = (xp,
tp)`` of DataProfiles: its values and spec, and every forcing
transform, derive from the two factors' own hooks.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import wofz

from .errors import InvalidParameterError
from .quadrature import _gauss_legendre

SCHWARTZ = "schwartz"
SMOOTH_BOUNDED = "smooth-bounded"


def _phi1(z):
    """(e^z - 1)/z, stable near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)
    return out


@dataclass
class DataProfile:
    """A smooth half-line datum with exact derivative access.

    ``transform_upper_ok`` declares that the half-line transform may be
    evaluated above the real axis: either the closed form continues there
    or the profile has compact support, so the defining integral converges
    for every lambda.  The cubic initial terms tilt their contours into the
    upper half-plane and need it.

    ``support_radius`` bounds the growth e^{b Im lambda} of the continued
    transform above the real axis.  A continued transform that grows
    there (compact support) must declare it; a missing one is read as 0,
    a transform that stays bounded in the tilt sectors.
    """

    name: str
    evaluator: Callable
    derivative_evaluator: Callable  # (order k, point) -> value
    decay_class: str = SCHWARTZ
    transform: Optional[Callable] = None
    grouped_time_transform: Optional[Callable] = None
    transform_upper_ok: bool = False
    support_radius: Optional[float] = None
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    def derivative(self, order: int, x):
        if order == 0:
            return self.evaluator(np.asarray(x, dtype=float))
        return self.derivative_evaluator(order, np.asarray(x, dtype=float))

    def is_zero(self) -> bool:
        return self.name == "zero"

    def spec(self) -> dict:
        return {"name": self.name, **self.params}


@dataclass
class ForcingProfile:
    """Separable forcing f(x, t) = xp(x) tp(t), Schwartz in x uniformly on
    compact t sets; ``factors`` is the pair (xp, tp)."""

    factors: tuple

    def __call__(self, x, t):
        xp, tp = self.factors
        return xp(x) * tp(t)

    def is_zero(self) -> bool:
        return any(p.is_zero() for p in self.factors)

    def spec(self) -> dict:
        if self.is_zero():
            return {"name": "zero"}
        xp, tp = self.factors
        return {"name": "separable", "x": xp.spec(), "t": tp.spec()}


# ---------------------------------------------------------------------------
# built-in profiles
# ---------------------------------------------------------------------------


def _exp_of_t_complex(a: complex):
    """(w, t) -> integral_0^t e^{-w (t - tau)} e^{a tau} d tau
    = (e^{a t} - e^{-w t}) / (w + a), with its limit near w = -a."""

    def grouped(w, t):
        w = np.asarray(w, dtype=complex)
        z = w + a
        small = np.abs(z) < 1e-8
        safe = np.where(small, 1.0, z)
        main = (np.exp(a * t) - np.exp(-w * t)) / safe
        lim = t * np.exp(a * t) * (1.0 - z * t / 2.0)
        return np.where(small, lim, main)

    return grouped


def _exp_decay(a: float) -> DataProfile:
    if a <= 0:
        raise InvalidParameterError("exp_decay requires a > 0")

    def transform(lam):
        return 1.0 / (a + 1j * np.asarray(lam, dtype=complex))

    return DataProfile(
        name="exp_decay",
        evaluator=lambda x: np.exp(-a * x),
        derivative_evaluator=lambda k, x: (-a) ** k * np.exp(-a * x),
        transform=transform,
        grouped_time_transform=_exp_of_t_complex(-a),
        transform_upper_ok=True,  # simple pole at i*a only, off the tilt sectors
        params={"a": a},
    )


def _poly_times_gaussian(p0: Polynomial, a: float):
    """Exact derivatives of p(x) e^{-a x^2} by polynomial recursion.

    The recursion cache is grown under a lock: profiles are shared
    read-only across solver threads.
    """
    cache = [p0]
    lock = threading.Lock()

    def deriv(k, x):
        if len(cache) <= k:
            with lock:
                while len(cache) <= k:
                    p = cache[-1]
                    cache.append(p.deriv() + Polynomial([0.0, -2.0 * a]) * p)
        return cache[k](x) * np.exp(-a * x * x)

    return deriv


def _gaussian(a: float) -> DataProfile:
    if a <= 0:
        raise InvalidParameterError("gaussian requires a > 0")
    root_a = math.sqrt(a)

    def transform(lam):
        lam = np.asarray(lam, dtype=complex)
        # integral_0^inf e^{-i lam y - a y^2} dy via the Faddeeva function
        return 0.5 * math.sqrt(math.pi / a) * wofz(-lam / (2.0 * root_a))

    return DataProfile(
        name="gaussian",
        evaluator=lambda x: np.exp(-a * x * x),
        derivative_evaluator=_poly_times_gaussian(Polynomial([1.0]), a),
        transform=transform,
        transform_upper_ok=True,  # entire transform
        params={"a": a},
    )


def _x_times_gaussian(a: float) -> DataProfile:
    if a <= 0:
        raise InvalidParameterError("x_times_gaussian requires a > 0")
    gauss = _gaussian(a)

    def transform(lam):
        lam = np.asarray(lam, dtype=complex)
        return (1.0 - 1j * lam * gauss.transform(lam)) / (2.0 * a)

    return DataProfile(
        name="x_times_gaussian",
        evaluator=lambda x: x * np.exp(-a * x * x),
        derivative_evaluator=_poly_times_gaussian(Polynomial([0.0, 1.0]), a),
        transform=transform,
        transform_upper_ok=True,  # entire transform
        params={"a": a},
    )


_BUMP_RULES = np.array([96, 128, 192, 256, 384, 512, 768])


def _bump(a: float, b: float) -> DataProfile:
    """exp(-1/((x-a)(b-x))) on (a, b), zero elsewhere.

    Derivatives follow the closed recursion u^(k) = N_k/Q^(2k) * e^{-1/Q}
    with Q = (x-a)(b-x); N_{k+1} = N_k' Q^2 - 2k N_k Q Q' + N_k Q'.

    The compact support makes the half-line transform entire; it is a
    Gauss-Legendre rule over the support, per lambda the smallest of
    ``_BUMP_RULES`` with n >= 96 max(1, h) + 0.7 |lambda| h, h = (b - a)/2,
    so the nodes resolve e^{-i lambda y} across the support up to the cap.
    Bump and rule are symmetric about c = (a + b)/2, so mirror nodes pair:
    uhat = e^{-i lambda c} sum_{s_j > 0} 2 w_j phi(c + s_j) cos(lambda s_j).
    Rules are built on first use; a race between solver threads only
    rebuilds identical arrays.
    """
    if not (b > a >= 0):
        raise InvalidParameterError("bump requires 0 <= a < b")
    Q = Polynomial([-a * b, a + b, -1.0])
    Qp = Q.deriv()
    numerators = [Polynomial([1.0])]
    lock = threading.Lock()

    def _ensure(k):
        if len(numerators) > k:
            return
        with lock:
            while len(numerators) <= k:
                j = len(numerators) - 1
                N = numerators[-1]
                numerators.append(N.deriv() * Q * Q - 2.0 * j * N * Q * Qp + N * Qp)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        q = Q(x)
        inside = q > 0
        out = np.zeros_like(x)
        out[inside] = np.exp(-1.0 / q[inside])
        return out if out.ndim else float(out)

    def deriv(k, x):
        _ensure(k)
        x = np.asarray(x, dtype=float)
        q = Q(x)
        inside = q > 0
        out = np.zeros_like(x)
        qi = q[inside]
        out[inside] = numerators[k](x[inside]) / qi ** (2 * k) * np.exp(-1.0 / qi)
        return out if out.ndim else float(out)

    h, c = 0.5 * (b - a), 0.5 * (a + b)
    rules = {}  # n -> (s_j > 0, 2 w_j phi(c + s_j)); built on first use

    def rule(n):
        if n not in rules:
            nodes, weights = _gauss_legendre(n)
            s = h * nodes[nodes > 0]
            rules[n] = (s, 2.0 * h * weights[nodes > 0] * evaluator(c + s))
        return rules[n]

    def transform(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        need = 96.0 * max(1.0, h) + 0.7 * h * np.abs(lam)
        sizes = _BUMP_RULES[
            np.minimum(np.searchsorted(_BUMP_RULES, need), len(_BUMP_RULES) - 1)
        ]
        # far below the axis e^{-i lam c} underflows and cos(lam s) overflows
        # while uhat stays representable: sum those points unpaired
        sizes[-lam.imag * c > 700.0] = 0
        out = np.empty_like(lam)
        for n in np.unique(sizes):
            pick = sizes == n
            lp = lam[pick]
            s, ws = rule(int(n) or int(_BUMP_RULES[-1]))
            if n:
                out[pick] = np.exp(-1j * c * lp) * (np.cos(np.outer(lp, s)) @ ws)
            else:
                y = np.outer(lp, c - s), np.outer(lp, c + s)
                out[pick] = (np.exp(-1j * y[0]) + np.exp(-1j * y[1])) @ (0.5 * ws)
        return out

    return DataProfile(
        name="bump",
        evaluator=evaluator,
        derivative_evaluator=deriv,
        transform=transform,
        transform_upper_ok=True,  # compact support: the transform is entire
        support_radius=b,
        params={"a": a, "b": b},
    )


def _constant(c: float) -> DataProfile:
    def grouped(w, t):
        w = np.asarray(w, dtype=complex)
        return c * t * _phi1(-w * t)

    return DataProfile(
        name="constant",
        evaluator=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        derivative_evaluator=lambda k, x: np.zeros_like(np.asarray(x, dtype=float)),
        decay_class=SMOOTH_BOUNDED,
        grouped_time_transform=grouped,
        params={"c": c},
    )


def _exp_of_t(a: float) -> DataProfile:
    return DataProfile(
        name="exp_of_t",
        evaluator=lambda t: np.exp(a * t),
        derivative_evaluator=lambda k, t: a**k * np.exp(a * t),
        decay_class=SMOOTH_BOUNDED,
        grouped_time_transform=_exp_of_t_complex(a),
        params={"a": a},
    )


def _sin_of_t(omega0: float) -> DataProfile:
    plus = _exp_of_t_complex(1j * omega0)
    minus = _exp_of_t_complex(-1j * omega0)

    def grouped(w, t):
        return (plus(w, t) - minus(w, t)) / 2j

    return DataProfile(
        name="sin_of_t",
        evaluator=lambda t: np.sin(omega0 * t),
        derivative_evaluator=lambda k, t: omega0**k
        * np.sin(omega0 * t + k * math.pi / 2.0),
        decay_class=SMOOTH_BOUNDED,
        grouped_time_transform=grouped,
        params={"omega0": omega0},
    )


def _zero() -> DataProfile:
    return DataProfile(
        name="zero",
        evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        derivative_evaluator=lambda k, x: np.zeros_like(np.asarray(x, dtype=float)),
        transform=lambda lam: np.zeros_like(np.asarray(lam, dtype=complex)),
        grouped_time_transform=lambda w, t: np.zeros_like(
            np.asarray(w, dtype=complex)
        ),
        transform_upper_ok=True,
        params={},
    )


_BUILTINS = {
    "exp_decay": (_exp_decay, ("a",)),
    "gaussian": (_gaussian, ("a",)),
    "x_times_gaussian": (_x_times_gaussian, ("a",)),
    "bump": (_bump, ("a", "b")),
    "constant": (_constant, ("c",)),
    "exp_of_t": (_exp_of_t, ("a",)),
    "sin_of_t": (_sin_of_t, ("omega0",)),
    "zero": (_zero, ()),
}


def builtin_profile(name: str, **params) -> DataProfile:
    """Construct a built-in profile by name.

    Raises InvalidParameterError for unknown names or out-of-range
    parameters (e.g. non-positive decay rates).
    """
    if name not in _BUILTINS:
        raise InvalidParameterError(
            f"unknown profile {name!r}; known: {sorted(_BUILTINS)}"
        )
    factory, keys = _BUILTINS[name]
    missing = [k for k in keys if k not in params]
    if missing:
        raise InvalidParameterError(f"profile {name!r} needs parameters {missing}")
    extra = [k for k in params if k not in keys]
    if extra:
        raise InvalidParameterError(f"profile {name!r} got unknown parameters {extra}")
    for key, value in params.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise InvalidParameterError(
                f"profile {name!r} parameter {key!r} must be a finite number, "
                f"got {value!r}"
            )
    return factory(**params)


# ---------------------------------------------------------------------------
# forcings
# ---------------------------------------------------------------------------


def zero_forcing() -> ForcingProfile:
    return ForcingProfile((_zero(), _zero()))


def separable_forcing(xp: DataProfile, tp: DataProfile) -> ForcingProfile:
    """f(x, t) = xp(x) * tp(t)."""
    return ForcingProfile((xp, tp))


def builtin_forcing(spec: dict | None) -> ForcingProfile:
    """Forcing from a JSON-style spec: zero or a separable product."""
    if spec is None or spec.get("name") == "zero":
        return zero_forcing()
    if spec.get("name") == "separable":
        if "x" not in spec or "t" not in spec:
            raise InvalidParameterError(
                "separable forcing needs 'x' and 't' sub-profiles"
            )
        xspec = dict(spec["x"])
        tspec = dict(spec["t"])
        xp = builtin_profile(xspec.pop("name"), **xspec)
        tp = builtin_profile(tspec.pop("name"), **tspec)
        return separable_forcing(xp, tp)
    raise InvalidParameterError(f"unknown forcing spec {spec!r}")


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

COMPATIBILITY_TOL = 1e-12


def check_compatibility(problem: "ProblemSpec") -> tuple[bool, bool]:
    """Corner-compatibility flags at (x, t) = (0, 0).

    First flag:  u0(0) = g0(0).
    Second flag: heat  u0''(0) + f(0,0) = g0'(0)
                 kdv   g0'(0) + u0'''(0) = f(0,0)

    Incompatible data are not rejected; they are exactly what the
    non-uniqueness construction consumes.
    """
    u0, g0, f = problem.u0, problem.g0, problem.f
    f00 = float(f(0.0, 0.0))
    first = abs(float(u0(0.0)) - float(g0(0.0))) <= COMPATIBILITY_TOL
    if problem.pde == "heat":
        second = (
            abs(float(u0.derivative(2, 0.0)) + f00 - float(g0.derivative(1, 0.0)))
            <= COMPATIBILITY_TOL
        )
    else:
        second = (
            abs(float(g0.derivative(1, 0.0)) + float(u0.derivative(3, 0.0)) - f00)
            <= COMPATIBILITY_TOL
        )
    return first, second


@dataclass
class ProblemSpec:
    """A quarter-plane problem: PDE selector plus the data triple."""

    pde: str  # "heat" | "kdv"
    u0: DataProfile
    g0: DataProfile
    f: ForcingProfile
    corner_compatibility: tuple = field(init=False)

    def __post_init__(self):
        if self.pde not in ("heat", "kdv"):
            raise InvalidParameterError(f"pde must be 'heat' or 'kdv', got {self.pde!r}")
        if self.u0.decay_class != SCHWARTZ and not self.u0.is_zero():
            raise InvalidParameterError(
                "initial datum must decay (schwartz class) or be zero"
            )
        self.corner_compatibility = check_compatibility(self)

    def to_dict(self) -> dict:
        return {
            "pde": self.pde,
            "u0": self.u0.spec(),
            "g0": self.g0.spec(),
            "f": self.f.spec(),
        }


def problem_from_dict(d: dict) -> ProblemSpec:
    try:
        pde = d["pde"]
        u0d = dict(d.get("u0") or {"name": "zero"})
        g0d = dict(d.get("g0") or {"name": "zero"})
    except (TypeError, KeyError) as exc:
        raise InvalidParameterError(f"malformed problem spec: {exc}") from exc
    u0 = builtin_profile(u0d.pop("name"), **u0d)
    g0 = builtin_profile(g0d.pop("name"), **g0d)
    f = builtin_forcing(d.get("f"))
    return ProblemSpec(pde=pde, u0=u0, g0=g0, f=f)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))
