"""Build ``bench/pool.json``: every request the benchmark can issue, with
its reference value.

    python3 bench/make_pool.py [--workers 2]

Run it once from the repository root; the benchmark only reads the
result.  References:

* heat values: ``heat_oracle`` (image-kernel solution, its own tol 1e-10);
* kdv values and every derivative: ``solve``/``solve_derivative`` at
  tol 1e-12, with that solve's error estimate as the reference error.
  Where the default panel budget runs out at that tolerance, the same
  tolerance is retried with a ten times larger budget, then tol 1e-11
  and 1e-10.

Each candidate records what the default tolerance returns today in
``expect``: "value" (within budget of the reference), "wrong" (outside
it: a known defect, listed when the pool is built), or the error type it
raises.  Edge candidates are expected to raise.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from workloads import BUDGET_FLOOR  # noqa: E402

CANDIDATES = 4
POINTS_STRATA = 16
FORCED_STRATA = 8
GENERIC_STRATA = 4
# forced slots are anchored: the cost of a forced solve swings by 20x
# across an x stratum (kdv below x ~ 0.25, heat below x ~ 0.05), so a
# full-cell draw would move the run time by seconds from seed to seed.
# Candidates sit within +-2% (in log) of the slot's anchor.
ANCHOR_JITTER = 0.02
# generic-path classes use one x per family, where a request costs up to
# 0.5-2 s at the largest t anchor (kdv costs 3.5 s at x = 1 and drops
# to 0.04 s past x ~ 2.2)
GENERIC_X = {"heat": 0.3, "kdv": 1.5}
TIGHT_TOL = 1e-12
HEAT_ORACLE_TOL = 1e-10
# reference settings, tried in order
REFERENCE_CONFIGS = ((TIGHT_TOL, None), (TIGHT_TOL, 200000), (1e-11, 200000), (1e-10, 200000))


def _log_uniform(rng, lo, hi, u=None):
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _order(ci: int, s: int):
    """About one request in four is a derivative (k, m) in {(1,0), (0,1)}."""
    if (s + ci) % 4 != 3:
        return 0, 0
    return (1, 0) if ((s + ci) // 4 + ci) % 2 == 0 else (0, 1)


def _generic_order(ci: int, s: int):
    """Generic-path classes take their derivative at the smallest t: at the
    largest it costs up to 7 s, a third of a forced run."""
    if s != 0:
        return 0, 0
    return (1, 0) if ci % 2 == 0 else (0, 1)


def _stratified_slots(rng, cls, ci, strata, x_range, t_range):
    """One slot per log-t stratum; each candidate pairs the strata with
    log-x strata by its own Latin-hypercube permutation."""
    perms = [rng.permutation(strata) for _ in range(CANDIDATES)]
    lt0, lt1 = math.log(t_range[0]), math.log(t_range[1])
    slots = []
    for s in range(strata):
        k, m = _order(ci, s)
        cands = []
        for c in range(CANDIDATES):
            t = math.exp(lt0 + (s + rng.random()) / strata * (lt1 - lt0))
            xs = int(perms[c][s])
            x = _log_uniform(rng, *x_range, u=(xs + rng.random()) / strata)
            cands.append({"x": x, "t": t, "k": k, "m": m})
        slots.append({"cls": cls, "kind": "interior", "stratum": s, "candidates": cands})
    return slots


def _anchored_slots(rng, cls, ci, strata, x_range, t_range, x_fixed=None):
    """One slot per log-t stratum, anchored at the stratum's centre and at
    the centre of the log-x stratum a per-class permutation pairs it with
    (or at ``x_fixed``)."""
    perm = rng.permutation(strata)
    slots = []
    for s in range(strata):
        k, m = _order(ci, s) if x_fixed is None else _generic_order(ci, s)
        t0 = _log_uniform(rng, *t_range, u=(s + 0.5) / strata)
        x0 = x_fixed or _log_uniform(rng, *x_range, u=(int(perm[s]) + 0.5) / strata)
        cands = []
        for _ in range(CANDIDATES):
            jt, jx = (ANCHOR_JITTER * (2.0 * rng.random() - 1.0) for _ in range(2))
            cands.append({"x": x0 * math.exp(jx), "t": t0 * math.exp(jt), "k": k, "m": m})
        slots.append({"cls": cls, "kind": "interior", "stratum": s, "candidates": cands})
    return slots


def _rng(name: str):
    return np.random.default_rng(zlib.crc32(name.encode()))


def build_layout() -> dict:
    pool = {"points": {"classes": W.points_classes(), "slots": []},
            "forced": {"classes": W.forced_classes(), "slots": []},
            "sweep": {"heat": [], "kdv": []}}

    for ci, cls in enumerate(pool["points"]["classes"]):
        pool["points"]["slots"] += _stratified_slots(
            _rng(cls), cls, ci, POINTS_STRATA, W.X_RANGE, W.T_RANGE
        )
    # edge slots: x in [1e-5, 1e-4] for every class with nonzero g0, and
    # kdv at t in [10, 20] (the Gaussian-datum class, whose whole band fails)
    for cls, spec in pool["points"]["classes"].items():
        if spec["g0"]["name"] == "zero":
            continue
        rng = _rng("edge-x:" + cls)
        cands = [{"x": _log_uniform(rng, 1e-5, 1e-4), "t": _log_uniform(rng, *W.T_RANGE),
                  "k": 0, "m": 0} for _ in range(CANDIDATES)]
        pool["points"]["slots"].append({"cls": cls, "kind": "edge", "stratum": 0, "candidates": cands})
    for s in range(2):
        rng = _rng(f"edge-t:{s}")
        cands = [{"x": _log_uniform(rng, *W.X_RANGE), "t": 10.0 + 5.0 * (s + rng.random()),
                  "k": 0, "m": 0} for _ in range(CANDIDATES)]
        pool["points"]["slots"].append(
            {"cls": "kdv.gauss_sin", "kind": "edge", "stratum": s, "candidates": cands}
        )

    for ci, cls in enumerate(pool["forced"]["classes"]):
        if W.is_generic(cls):
            slots = _anchored_slots(_rng(cls), cls, ci, GENERIC_STRATA, W.FORCED_X_RANGE,
                                    W.T_RANGE, GENERIC_X[cls.split(".")[0]])
        else:
            slots = _anchored_slots(_rng(cls), cls, ci, FORCED_STRATA, W.FORCED_X_RANGE, W.T_RANGE)
        pool["forced"]["slots"] += slots

    for pde in ("heat", "kdv"):
        rng = _rng("sweep:" + pde)
        for _ in range(CANDIDATES):
            u = rng.random(4)
            pool["sweep"][pde].append({
                "x0": 0.2 * math.exp(0.2 * (u[0] - 0.5)),
                "x1": 4.0 * math.exp(0.2 * (u[1] - 0.5)),
                "t0": 0.2 + 0.1 * u[2],
                "t1": 0.8 + 0.2 * u[3],
            })
    return pool


# -- reference computation (worker processes) ------------------------------

def _reference(job):
    from utmqp.config import SolverConfig
    from utmqp.errors import UtmqpError
    from utmqp.profiles import problem_from_dict
    from utmqp.solvers import solve_derivative
    from utmqp.verification import heat_oracle

    spec, x, t, k, m, want_default = job
    p = problem_from_dict(spec)
    out = {}
    if want_default:
        try:
            s = solve_derivative(p, k, m, x, t)
            out["default"] = {"value": s.value, "err": s.error_estimate}
        except UtmqpError as exc:
            out["default"] = {"error": type(exc).__name__}
    t0 = time.perf_counter()
    try:
        if p.pde == "heat" and k == 0 and m == 0:
            out["ref"] = heat_oracle(p, x, t, tol=HEAT_ORACLE_TOL)
            out["ref_err"] = HEAT_ORACLE_TOL
            out["ref_source"] = "heat_oracle"
        else:
            for tol, panels in REFERENCE_CONFIGS:
                cfg = SolverConfig(tol=tol) if panels is None else SolverConfig(tol=tol, max_panels=panels)
                try:
                    s = solve_derivative(p, k, m, x, t, cfg)
                except UtmqpError as exc:
                    out["ref_error"] = type(exc).__name__
                    continue
                out.pop("ref_error", None)
                out["ref"] = s.value
                out["ref_err"] = s.error_estimate
                out["ref_source"] = f"solve_tol_{tol:g}" + (f"_panels_{panels}" if panels else "")
                break
    except UtmqpError as exc:
        out["ref_error"] = type(exc).__name__
    out["ref_seconds"] = time.perf_counter() - t0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    pool = build_layout()
    jobs, sinks = [], []
    for wl in ("points", "forced"):
        classes = pool[wl]["classes"]
        for slot in pool[wl]["slots"]:
            for c in slot["candidates"]:
                jobs.append((classes[slot["cls"]], c["x"], c["t"], c["k"], c["m"], True))
                sinks.append(("request", slot, c))
    for pde, grids in pool["sweep"].items():
        for g in grids:
            xs = np.linspace(g["x0"], g["x1"], W.SWEEP_NX)
            ts = np.linspace(g["t0"], g["t1"], W.SWEEP_NT)
            g["refs"], g["ref_errs"] = [], []
            for x in xs:
                for t in ts:
                    jobs.append((W.SWEEP_PROBLEMS[pde], float(x), float(t), 0, 0, False))
                    sinks.append(("grid", g, None))

    # longest jobs first keeps both workers busy to the end
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][0]["pde"] != "kdv", i))
    ctx = multiprocessing.get_context("spawn")
    results = [None] * len(jobs)
    t0 = time.perf_counter()
    with ctx.Pool(args.workers) as workers:
        for n, (i, res) in enumerate(
            zip(order, workers.imap(_reference, [jobs[i] for i in order], chunksize=1))
        ):
            results[i] = res
            if n % 50 == 0:
                print(f"{n}/{len(jobs)} after {time.perf_counter() - t0:.0f} s", flush=True)

    problems, failing, worst, known_wrong = [], {}, {}, []
    for (kind, owner, cand), res in zip(sinks, results):
        if kind == "grid":
            if "ref" not in res:
                problems.append(f"sweep grid point has no reference: {res}")
            owner["refs"].append(res.get("ref"))
            owner["ref_errs"].append(res.get("ref_err"))
            continue
        default = res["default"]
        if owner["kind"] == "interior" and "error" in default:
            failing.setdefault(owner["cls"], []).append(default["error"])
        if owner["kind"] == "edge" and "error" not in default:
            problems.append(f"edge {owner['cls']} {cand} solves today")
        cand["expect"] = default.get("error", "value")
        for key in ("ref", "ref_err", "ref_source"):
            if key in res:
                cand[key] = res[key]
        if "ref" in res and "error" not in default:
            diff = abs(default["value"] - res["ref"])
            budget = max(default["err"], BUDGET_FLOOR) + res["ref_err"]
            row = worst.setdefault(owner["cls"], [0.0, 0])
            row[0] = max(row[0], diff / budget)
            row[1] += diff > default["err"] + res["ref_err"]
            if diff > budget:
                cand["expect"] = "wrong"
                known_wrong.append(f"{owner['cls']} {cand}: value {default['value']!r}, "
                                   f"error estimate {default['err']:.2e}")
        if "ref" not in res and "error" not in default:
            problems.append(f"{owner['cls']} {cand} solves but has no reference")

    with open(W.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.POOL_PATH} ({len(jobs)} jobs, {time.perf_counter() - t0:.0f} s)")
    for cls, (ratio, under) in sorted(worst.items()):
        print(f"{cls:22s} max |value - ref| / budget = {ratio:.3g}; "
              f"error estimate below the actual error: {under}")
    sources = {}
    for (kind, owner, cand), res in zip(sinks, results):
        sources[res.get("ref_source", "none")] = sources.get(res.get("ref_source", "none"), 0) + 1
    print("reference sources:", sources)
    for cls, errors in sorted(failing.items()):
        print(f"{cls:22s} interior candidates raising today: {len(errors)} {sorted(set(errors))}")
    for line in known_wrong:
        print("KNOWN WRONG:", line)
    for line in problems:
        print("PROBLEM:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
