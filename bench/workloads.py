"""Problem classes, the stored request pool, and seeded request selection.

Every request a run can issue is drawn from a pool stored in
``bench/pool.json`` together with its reference value, so references
exist for every seed.  The pool is built once by ``bench/make_pool.py``:
heat values come from the image-kernel ``heat_oracle``; kdv values and
heat derivatives come from ``solve``/``solve_derivative`` at tol 1e-12
(the acceptance suite's ``TIGHT`` setting).

The pool is organised in *slots*: one slot per (problem class, log-t
stratum), each holding four candidate points.  A run takes ``rounds``
passes over all slots, run as consecutive blocks; each pass uses a
different candidate of every slot, and the seed chooses which and the
order within a block.  ``points`` candidates are spread over their
stratum (x paired with t by a Latin-hypercube permutation); ``forced``
candidates sit within 2% of a fixed anchor, because a forced solve's
cost jumps by 20x across a stratum (see ``make_pool.py``).  Either way
every seed runs the same mix of cheap and expensive requests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

# interior envelope of the request workloads: inside it every closed-form
# class solves today
X_RANGE = (1e-2, 20.0)
T_RANGE = (1e-3, 1.0)
# forced requests start at x = 0.1: below it a kdv forced solve costs
# 1-2 s at every t, which would leave room for few requests per run
FORCED_X_RANGE = (0.1, 20.0)

# a returned value is within budget when it is within
# max(error estimate, BUDGET_FLOOR) + reference error of its reference;
# the floor is one term's share of the default tolerance, so an
# over-optimistic estimate (e.g. 1e-16 on a roundoff-limited term) is
# reported, not counted as a wrong value
BUDGET_FLOOR = 1e-9 / (2.0 * math.pi)

EXP = {"name": "exp_decay", "a": 1.0}
EXP_T = {"name": "exp_of_t", "a": -1.0}
GAUSS = {"name": "gaussian", "a": 1.0}
ZERO = {"name": "zero"}


def _problem(pde, u0, g0, f=ZERO):
    return {"pde": pde, "u0": u0, "g0": g0, "f": f}


def _separable(x, t):
    return {"name": "separable", "x": x, "t": t}


def points_classes() -> dict:
    """The unforced classes: closed-form transforms throughout."""
    out = {}
    for pde in ("heat", "kdv"):
        out[f"{pde}.exp"] = _problem(pde, EXP, EXP_T)
        out[f"{pde}.gauss_sin"] = _problem(
            pde, GAUSS, {"name": "sin_of_t", "omega0": 1.0}
        )
        out[f"{pde}.bump"] = _problem(pde, {"name": "bump", "a": 1.0, "b": 3.0}, ZERO)
        out[f"{pde}.step"] = _problem(pde, ZERO, {"name": "constant", "c": 1.0})
    return out


# every closed-form x factor and t factor appears once per family; the
# full 2 x 3 product would not fit the run next to the generic classes
FORCINGS = {
    "f_exp_const": _separable(EXP, {"name": "constant", "c": 1.0}),
    "f_gauss_expt": _separable(GAUSS, EXP_T),
    "f_gauss_sin": _separable(GAUSS, {"name": "sin_of_t", "omega0": 1.0}),
}


def forced_classes() -> dict:
    """Separable forcings with closed-form time factors, plus the classes
    whose time profile has no closed form (generic time quadrature)."""
    out = {}
    for pde in ("heat", "kdv"):
        for name, f in FORCINGS.items():
            out[f"{pde}.{name}"] = _problem(pde, EXP, EXP_T, f)
    for pde in ("heat", "kdv"):
        out[f"{pde}.g0_gauss"] = _problem(pde, EXP, GAUSS)
        out[f"{pde}.g0_xgauss"] = _problem(pde, EXP, {"name": "x_times_gaussian", "a": 1.0})
        out[f"{pde}.f_exp_gausst"] = _problem(
            pde, EXP, EXP_T, _separable(EXP, GAUSS)
        )
    return out


GENERIC = ("g0_gauss", "g0_xgauss", "f_exp_gausst")


def is_generic(cls: str) -> bool:
    return cls.split(".", 1)[1] in GENERIC


# the sweep session's two problems
SWEEP_PROBLEMS = {"heat": _problem("heat", EXP, EXP_T), "kdv": _problem("kdv", EXP, EXP_T)}
SWEEP_NX = 32
SWEEP_NT = 2


@dataclass(frozen=True)
class Request:
    rid: int
    round: int
    cls: str
    x: float
    t: float
    k: int
    m: int
    ref: float | None
    ref_err: float | None
    expect: str  # "value" or the error type the pool build observed


def load_pool() -> dict:
    with open(POOL_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _choice_order(rng: random.Random, n: int) -> list:
    """A permutation of range(n) drawn with ``random()`` only, which is
    stable across Python versions."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def select_requests(pool: dict, workload: str, seed: int, rounds: int) -> list:
    """The seeded request list of a ``points`` or ``forced`` run: ``rounds``
    consecutive blocks, each holding one candidate of every slot in a
    seeded order."""
    section = pool[workload]
    rng = random.Random(f"{workload}:{seed}")
    blocks = [[] for _ in range(rounds)]
    for slot in section["slots"]:
        order = _choice_order(rng, len(slot["candidates"]))
        for r in range(min(rounds, len(order))):
            blocks[r].append((slot, slot["candidates"][order[r]]))
    requests = []
    for r, block in enumerate(blocks):
        for i in _choice_order(rng, len(block)):
            slot, c = block[i]
            requests.append(Request(
                rid=len(requests),
                round=r,
                cls=slot["cls"],
                x=c["x"],
                t=c["t"],
                k=c["k"],
                m=c["m"],
                ref=c.get("ref"),
                ref_err=c.get("ref_err"),
                expect=c.get("expect", "value"),
            ))
    return requests


def select_sweep(pool: dict, seed: int) -> dict:
    """The seeded inputs of one ``sweep`` session."""
    rng = random.Random(f"sweep:{seed}")
    grids = {}
    for pde in ("heat", "kdv"):
        cands = pool["sweep"][pde]
        grids[pde] = cands[int(rng.random() * len(cands))]
    u = [rng.random() for _ in range(8)]
    return {
        "grids": grids,
        # boundary probe: the x -> 0+ recovery region on the heat problem
        "edge_grid": (1e-5 * (1.0 + u[0]), 5e-5 * (1.0 + u[1]), 0.3 + 0.5 * u[2]),
        "counterexample_grid": (0.2 + 0.1 * u[3], 2.0 + u[4], 0.1 + 0.05 * u[5], 1.0),
        "reduce": tuple(0.05 + 9.95 * v for v in (u[6], u[7], rng.random())),
    }


def grid_spec(x0, x1, nx, t0, t1, nt) -> str:
    return f"{x0!r}:{x1!r}:{nx},{t0!r}:{t1!r}:{nt}"
