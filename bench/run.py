"""utmqp benchmark: one command per workload, outputs checked against
stored references.

    python3 bench/run.py --workload points|forced|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root (the benchmark imports ``src/utmqp``).

Workloads (closed loop: one process, one request at a time):

* ``points``  single-point solves of the unforced classes (closed-form
  transforms, so quadrature does most of the work), plus a fixed share
  of edge requests from regions that fail today;
* ``forced``  single-point solves where the transforms do most of the
  work: separable forcings, and data with no closed-form time transform;
* ``sweep``   a verification session through the ``utmqp`` CLI entry
  point: ``solve`` grids, ``verify``, a boundary probe, ``counterexample``
  and ``reduce``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
inputs with spans around every layer entry point (see ``tracing.py``),
runs every third request also untraced (tracing overhead, and a check that
values are bit-identical) and once per nonzero datum (per-term costs),
then the baseline probe, and prints the per-layer metrics; a traced sweep
repeats the whole session untraced for the same two checks.  The last
stdout line is the result object; the line before it records the
environment and the information fields.

Every request and CLI output is checked against ``bench/pool.json`` (see
``workloads.py``); ``bench/selftest.py`` tests the benchmark itself.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("points", "forced", "sweep")
SETUP_REPEATS = 3
# one round = one request from every slot of the pool; rounds scale the
# request workloads with --seconds (the sweep session has a fixed size)
ROUND_SECONDS = {"points": 8.0, "forced": 9.5}
TRACE_SAMPLE = 3
WARMUP_POINT = (3.0, 0.1)


def _fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _round_percentile(rounds, q: float) -> float:
    """Median over rounds of each round's percentile: every round is a
    complete stratified sample run as one block, so a slow spell of the
    machine moves one round, not the reported figure."""
    return statistics.median(_percentile(latencies, q) for latencies in rounds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# problem classes and set-up
# ---------------------------------------------------------------------------


def _problems(workload: str, pool: dict) -> dict:
    from utmqp.profiles import problem_from_dict

    import workloads as W

    if workload == "sweep":
        specs = dict(W.SWEEP_PROBLEMS)
        # the energy check's homogeneous bump fields
        for pde in ("heat", "kdv"):
            specs[f"{pde}.bump"] = W.points_classes()[f"{pde}.bump"]
    else:
        specs = pool[workload]["classes"]
    return {name: problem_from_dict(spec) for name, spec in specs.items()}


def _warm_up(problems: dict):
    from utmqp.errors import UtmqpError
    from utmqp.solvers import solve

    for p in problems.values():
        try:
            solve(p, *WARMUP_POINT)
        except UtmqpError:
            pass


def _setup_only(workload: str) -> int:
    """Import, problem construction and one warm-up solve per class, timed
    from process start; run in a fresh interpreter by ``_setup_seconds``."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads as W

    if workload == "sweep":
        import utmqp.cli  # noqa: F401  (the session's entry point)

    problems = _problems(workload, W.load_pool())
    _warm_up(problems)
    print(json.dumps({"setup_s": time.perf_counter() - _T_PROCESS}))
    return 0


def _setup_seconds(workload: str) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        # timed inside the child from its first statement: interpreter
        # start-up is excluded, imports are not
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    samples.sort()
    return samples[len(samples) // 2]


# ---------------------------------------------------------------------------
# request workloads
# ---------------------------------------------------------------------------


def _run_requests(problems, requests, solve_fn=None):
    """Closed loop over ``requests``; returns one outcome per request."""
    from utmqp.errors import UtmqpError
    from utmqp.solvers import solve_derivative

    call = solve_fn or solve_derivative
    outcomes = []
    for r in requests:
        p = problems[r.cls]
        t0 = time.perf_counter()
        try:
            s, error = call(p, r.k, r.m, r.x, r.t), None
        except UtmqpError as exc:
            s, error = None, type(exc).__name__
        seconds = time.perf_counter() - t0
        outcomes.append({"seconds": seconds, "latency": math.inf if error else seconds,
                         "error": error, "sample": s})
    return outcomes


def _check_sample(s, ref, ref_err) -> tuple:
    """(within budget, checked, estimate below the actual error).

    The value must lie within max(error estimate, floor) + reference
    error of its reference, and the imaginary residual within the same
    budget; see ``workloads.BUDGET_FLOOR``."""
    from workloads import BUDGET_FLOOR

    own = max(s.error_estimate, BUDGET_FLOOR)
    if not math.isfinite(s.value) or s.imag_residual > own:
        return False, True, False
    if ref is None:
        return True, False, False
    diff = abs(s.value - ref)
    return diff <= own + ref_err, True, diff > s.error_estimate + ref_err


def _judge_requests(requests, outcomes) -> dict:
    wrong = new_wrong = unchecked = returned = optimistic = 0
    errors: dict = {}
    wrong_ids = []
    for r, o in zip(requests, outcomes):
        if o["error"] is not None:
            errors[o["error"]] = errors.get(o["error"], 0) + 1
            continue
        returned += 1
        ok, checked, low = _check_sample(o["sample"], r.ref, r.ref_err)
        unchecked += not checked
        optimistic += low
        if not ok:
            wrong += 1
            new_wrong += r.expect != "wrong"
            wrong_ids.append({"cls": r.cls, "x": r.x, "t": r.t, "k": r.k, "m": r.m,
                              "value": o["sample"].value, "ref": r.ref, "known": r.expect == "wrong"})
    return {"attempted": len(requests), "raised": len(requests) - returned,
            "failed": len(requests) - returned + wrong, "returned": returned,
            "wrong": wrong, "new_wrong": new_wrong, "unchecked": unchecked,
            "estimate_below_error": optimistic, "errors": errors, "wrong_examples": wrong_ids[:5]}


def _request_pass(problems, requests, tracer=None):
    """Time one closed-loop pass; with a tracer, every request is a
    ``solvers.solve`` span tagged with its id."""
    import gc

    from utmqp.solvers import solve_derivative

    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        outcomes = _run_requests(problems, requests)
        return outcomes, time.perf_counter() - t0
    traced = tracer.wrap("solvers.solve", solve_derivative)
    with tracer:
        t0 = time.perf_counter()
        outcomes = []
        for r in requests:
            tracer.request = ("w", r.rid)
            outcomes += _run_requests(problems, [r], traced)
        wall = time.perf_counter() - t0
    tracer.request = None
    return outcomes, wall


def _values(outcomes):
    return [None if o["sample"] is None else (o["sample"].value, o["sample"].error_estimate,
                                               o["sample"].term_breakdown) for o in outcomes]


# ---------------------------------------------------------------------------
# sweep workload: a CLI session
# ---------------------------------------------------------------------------


def _sweep_calls(inputs: dict, tmp: Path) -> list:
    import workloads as W

    paths = {}
    for pde, spec in W.SWEEP_PROBLEMS.items():
        paths[pde] = tmp / f"{pde}.json"
        paths[pde].write_text(json.dumps(spec))
    calls = []
    for pde in ("heat", "kdv"):
        g = inputs["grids"][pde]
        spec = W.grid_spec(g["x0"], g["x1"], W.SWEEP_NX, g["t0"], g["t1"], W.SWEEP_NT)
        calls.append(("solve", f"grid.{pde}", ["solve", "--problem", str(paths[pde]), "--grid", spec,
                                              "--out", str(tmp / f"{pde}.csv")]))
    # energy runs on heat only: the kdv energy trace (about 45 s) does not
    # fit the per-run budget next to everything else
    checks = {"heat": "energy,recovery,decay,oracle", "kdv": "recovery,decay,oracle"}
    for pde in ("heat", "kdv"):
        calls.append(("verify", f"verify.{pde}", ["verify", "--problem", str(paths[pde]), "--checks",
                                                  checks[pde], "--out", str(tmp / f"verify_{pde}.json")]))
    x0, x1, t = inputs["edge_grid"]
    calls.append(("solve", "edge.heat", ["solve", "--problem", str(paths["heat"]), "--grid",
                                         W.grid_spec(x0, x1, 3, t, t, 1),
                                         "--out", str(tmp / "edge.csv")]))
    cx0, cx1, ct0, ct1 = inputs["counterexample_grid"]
    calls.append(("counterexample", "counterexample", [
        "counterexample", "--pde", "heat", "--n", "1", "--grid", W.grid_spec(cx0, cx1, 7, ct0, ct1, 5),
        "--out", str(tmp / "cx.csv"), "--report", str(tmp / "cx.json")]))
    a, b, c = inputs["reduce"]
    calls.append(("reduce", "reduce", ["reduce", "--mode", "oblique", "--A", repr(a), "--B", repr(b),
                                       "--C", repr(c), "--report", str(tmp / "reduce.json")]))
    return calls


def _invoke(args) -> tuple:
    """Run one CLI call in-process; (exit code, error type or None)."""
    import click

    from utmqp.cli import main as cli_main
    from utmqp.errors import UtmqpError

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            cli_main(args, standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0), None
    except UtmqpError as exc:
        return 1, type(exc).__name__
    except click.ClickException as exc:
        raise RuntimeError(f"benchmark built a bad CLI call {args}: {exc}") from exc
    return 0, None


def _sweep_pass(calls, tracer=None):
    """Run the session; the tracer (request-level or full) sees every solve."""
    import gc

    import tracing

    meter = tracer or tracing.Tracer(tracing.REQUEST_TARGETS)
    results = []
    gc.collect()
    with meter:
        t0 = time.perf_counter()
        for i, (command, label, args) in enumerate(calls):
            meter.request = ("w", i)
            run = meter.wrap(f"cli.{command}", _invoke)
            try:
                code, err = run(args)
            finally:
                meter.request = None
            results.append({"label": label, "code": code, "error": err})
        wall = time.perf_counter() - t0
    return results, wall, meter


def _sweep_solves(meter) -> tuple:
    """Completed solver evaluations and per-solve latencies of a session."""
    count, latencies = 0, []
    for s in meter.spans:
        if s.name == "solvers.solve":
            latencies.append(math.inf if s.error else s.duration)
            count += s.error is None
        elif s.name == "solvers.solve_grid" and s.error is None:
            count += s.attrs["points"]
    return count, latencies


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _judge_sweep(inputs, results, tmp: Path) -> dict:
    import numpy as np

    from utmqp.profiles import problem_from_dict
    from utmqp.verification import heat_oracle

    import workloads as W
    from workloads import BUDGET_FLOOR

    by_label = {r["label"]: r for r in results}
    wrong = returned = 0
    notes, bad_calls = [], set()

    def judge(label, good, note):
        nonlocal wrong, returned
        returned += 1
        if not good:
            wrong += 1
            bad_calls.add(label)
            notes.append(f"{label}: {note}")

    def check_rows(rows, refs, ref_errs, xs, ts, label):
        grid = [(x, t) for x in xs for t in ts]
        if len(rows) != len(grid):
            judge(label, False, f"{len(rows)} rows for {len(grid)} points")
            return
        for row, (x, t), ref, ref_err in zip(rows, grid, refs, ref_errs):
            u, err = float(row["U"]), float(row["err"])
            same_point = abs(float(row["x"]) - x) <= 1e-12 * x and abs(float(row["t"]) - t) <= 1e-12 * t
            # the CSV keeps 13 significant digits
            budget = max(err, BUDGET_FLOOR) + ref_err + 1e-12 * max(1.0, abs(ref))
            judge(label, same_point and math.isfinite(u) and abs(u - ref) <= budget,
                  f"U({x:.4g}, {t:.4g}) = {u!r}, reference {ref!r}")

    for pde in ("heat", "kdv"):
        r = by_label[f"grid.{pde}"]
        if r["code"] != 0:
            continue
        g = inputs["grids"][pde]
        xs = np.linspace(g["x0"], g["x1"], W.SWEEP_NX)
        ts = np.linspace(g["t0"], g["t1"], W.SWEEP_NT)
        check_rows(_read_csv(tmp / f"{pde}.csv"), g["refs"], g["ref_errs"], xs, ts, f"grid.{pde}")

    for pde in ("heat", "kdv"):
        r = by_label[f"verify.{pde}"]
        report_path = tmp / f"verify_{pde}.json"
        if r["error"] is not None or not report_path.exists():
            continue
        for check in json.loads(report_path.read_text())["checks"]:
            judge(f"verify.{pde}", check["passed"], f"{check['name']} FAIL")

    if by_label["edge.heat"]["code"] == 0:
        # the boundary probe fails today; once it solves, check it against
        # the image-kernel oracle
        x0, x1, t = inputs["edge_grid"]
        p = problem_from_dict(W.SWEEP_PROBLEMS["heat"])
        xs = np.linspace(x0, x1, 3)
        refs = [heat_oracle(p, float(x), t) for x in xs]
        check_rows(_read_csv(tmp / "edge.csv"), refs, [1e-10] * 3, xs, [t], "edge.heat")

    if by_label["counterexample"]["code"] == 0:
        rep = json.loads((tmp / "cx.json").read_text())
        rows = _read_csv(tmp / "cx.csv")
        # criterion 9: the heat witness's energy grows like t^-1.5
        judge("counterexample", rep["violated"] and rep["energy_exponent"] is not None
              and abs(rep["energy_exponent"] + 1.5) <= 0.05
              and len(rows) == 35 and all(math.isfinite(float(r["u"])) for r in rows),
              rep["summary"])

    if by_label["reduce"]["error"] is None:
        rep = json.loads((tmp / "reduce.json").read_text())
        judge("reduce", rep["passed"], "reduce check FAIL")

    raised = sum(1 for r in results if r["code"] != 0)
    errors = {}
    for r in results:
        if r["error"]:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    return {"attempted": len(results), "raised": raised,
            "failed": sum(1 for r in results if r["code"] != 0 or r["label"] in bad_calls),
            "returned": returned, "wrong": wrong, "new_wrong": wrong, "errors": errors,
            "wrong_examples": notes[:5]}


# ---------------------------------------------------------------------------
# traced extras: per-datum term solves and the baseline probe
# ---------------------------------------------------------------------------


def _isolated(p, which: str):
    from utmqp.profiles import ProblemSpec, builtin_profile, zero_forcing

    zero = builtin_profile("zero")
    return ProblemSpec(
        p.pde,
        p.u0 if which == "initial" else zero,
        p.g0 if which == "boundary" else zero,
        p.f if which == "forcing" else zero_forcing(),
    )


def _term_pass(tracer, problems, requests, outcomes):
    """Solve each returned request once per nonzero datum, with the other
    data zeroed: the representation is linear, so these are exactly the
    integrals of the full solve, split by datum."""
    from utmqp.errors import UtmqpError
    from utmqp.solvers import solve_derivative

    split = {}
    for name, p in problems.items():
        parts = []
        for which, datum in (("initial", p.u0), ("boundary", p.g0), ("forcing", p.f)):
            if not datum.is_zero():
                parts.append((which, _isolated(p, which)))
        split[name] = parts
    for r, o in zip(requests, outcomes):
        if o["error"] is not None:
            continue
        for which, q in split[r.cls]:
            tracer.request = ("term", r.rid, which)
            run = tracer.wrap(f"solvers.term.{which}", solve_derivative)
            with contextlib.suppress(UtmqpError):
                run(q, r.k, r.m, r.x, r.t)
    tracer.request = None


def _probe_problems():
    from utmqp.profiles import problem_from_dict

    import workloads as W

    specs = {
        "heat_exp": W.points_classes()["heat.exp"],
        "kdv_exp": W.points_classes()["kdv.exp"],
        "kdv_forced": W.forced_classes()["kdv.f_exp_const"],
    }
    return {k: problem_from_dict(v) for k, v in specs.items()}


def _probe(tracer) -> tuple:
    """Regenerate the ROADMAP baseline table.  Timings run untraced
    (median of three); the per-term split runs traced."""
    import numpy as np

    from utmqp.errors import UtmqpError
    from utmqp.profiles import problem_from_dict
    from utmqp.solvers import solve, solve_grid

    import workloads as W

    P = _probe_problems()
    metrics, table = {}, {}

    def timed(fn, repeats=3):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return sorted(samples)[len(samples) // 2]

    for key, (x, t) in (("heat_exp.x1_t0p5", (1.0, 0.5)), ("kdv_exp.x1_t0p5", (1.0, 0.5)),
                        ("kdv_exp.x0p1_t0p01", (0.1, 0.01)), ("kdv_forced.x1_t0p5", (1.0, 0.5)),
                        ("kdv_forced.x0p1_t0p01", (0.1, 0.01))):
        p = P[key.split(".")[0]]
        metrics[f"probe.{key}.ms"] = 1e3 * timed(lambda: solve(p, x, t))
    xs, ts = np.linspace(0.5, 2.0, 4), np.linspace(0.25, 1.0, 4)
    for threads in (1, 2):
        metrics[f"probe.solve_grid.kdv_4x4.threads{threads}.s"] = timed(
            lambda: solve_grid(P["kdv_exp"], xs, ts, threads=threads), repeats=1)

    nonzero_g0 = {n: s for n, s in W.points_classes().items() if s["g0"]["name"] != "zero"}
    edge_errors = {}
    for name, spec in nonzero_g0.items():
        try:
            solve(problem_from_dict(spec), 1e-4, 0.5)
            edge_errors[name] = None
        except UtmqpError as exc:
            edge_errors[name] = type(exc).__name__
    metrics["probe.edge.x1e-4_t0p5.failed"] = sum(e is not None for e in edge_errors.values())
    table["edge x = 1e-4, t = 0.5 (classes with nonzero g0)"] = edge_errors
    try:
        solve(P["kdv_exp"], 1.0, 20.0)
        kdv_t20 = None
    except UtmqpError as exc:
        kdv_t20 = f"{type(exc).__name__}: {exc}"
    metrics["probe.edge.kdv_x1_t20.failed"] = int(kdv_t20 is not None)
    table["edge kdv exp data at (1, 20)"] = kdv_t20

    with tracer:
        tracer.label_terms = True
        for tag, p, x, t in (("kdv_forced.x0p1_t0p01", P["kdv_forced"], 0.1, 0.01),
                             ("kdv_exp.x1_t5", P["kdv_exp"], 1.0, 5.0)):
            tracer.request = ("probe", tag)
            with contextlib.suppress(UtmqpError):
                solve(p, x, t)
        tracer.label_terms = False
        tracer.request = None
    terms = {}
    for s in tracer.spans:
        if not (isinstance(s.request, tuple) and s.request[0] == "probe"):
            continue
        if s.name != "quadrature.integrate" or s.error is not None:
            continue
        row = terms.setdefault((s.request[1], s.attrs["term"]), {"ms": 0.0, "evals": 0, "err": 0.0})
        row["ms"] += 1e3 * s.duration
        row["evals"] += s.attrs["evals"]
        row["err"] += s.attrs["err"]
    for term in ("init_line", "init_wedge", "boundary", "force_line", "force_wedge"):
        row = terms.get(("kdv_forced.x0p1_t0p01", term), {"ms": 0.0, "evals": 0, "err": 0.0})
        metrics[f"probe.kdv_forced.x0p1_t0p01.{term}.ms"] = row["ms"]
        metrics[f"probe.kdv_forced.x0p1_t0p01.{term}.evals"] = row["evals"]
        table[f"kdv forced (0.1, 0.01) {term}"] = row
    metrics["probe.kdv_exp.x1_t5.init_line.evals"] = terms.get(
        ("kdv_exp.x1_t5", "init_line"), {"evals": 0})["evals"]
    table["note"] = ("tier-1 suite wall time is not re-measured here: run the ROADMAP "
                     "tier-1 command for it")
    return metrics, table


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _layer_metrics(tracer) -> dict:
    import tracing

    spans = [s for s in tracer.spans if isinstance(s.request, tuple) and s.request[0] in ("w", "term")]
    own = tracing.self_times(spans)
    work = [s for s in spans if s.request[0] == "w"]
    m: dict = {}

    def named(name, pool=work):
        return [s for s in pool if s.name == name]

    def total(seq, key=None):
        return float(sum(own[id(s)] if key == "self" else s.duration for s in seq))

    integ = named("quadrature.integrate")
    done = [s for s in integ if s.error is None]
    evals = sum(s.attrs["evals"] for s in done)
    ratios = [s.attrs["err"] / s.attrs["tol"] for s in done if s.attrs.get("tol")]
    m["quadrature.integrate.calls"] = len(integ)
    m["quadrature.integrate.self_s"] = total(integ, "self")
    m["quadrature.evals"] = evals
    m["quadrature.panels"] = evals / 15.0
    m["quadrature.err_over_tol.p50"] = _percentile(ratios, 50) if ratios else 0.0
    m["quadrature.err_over_tol.min"] = min(ratios) if ratios else 0.0
    trunc = named("quadrature.truncation")
    radii = [s.attrs["R"] for s in trunc if s.error is None]
    m["quadrature.truncation.calls"] = len(trunc)
    m["quadrature.truncation.self_s"] = total(trunc, "self")
    m["quadrature.truncation.R.p50"] = _percentile(radii, 50) if radii else 0.0
    m["quadrature.truncation.R.max"] = max(radii) if radii else 0.0
    env = named("quadrature.envelope")
    m["quadrature.envelope.calls"] = len(env)
    m["quadrature.envelope.self_s"] = total(env, "self")
    m["quadrature.errors"] = sum(1 for s in integ if s.error)
    for fn in tracing.TRANSFORM_FUNCTIONS:
        seq = named(f"transforms.{fn}")
        m[f"transforms.{fn}.calls"] = len(seq)
        m[f"transforms.{fn}.self_s"] = total(seq, "self")
        m[f"transforms.{fn}.points"] = sum(s.attrs["points"] for s in seq if s.error is None)
    solves = named("solvers.solve")
    m["solvers.solve.calls"] = len(solves)
    m["solvers.solve.self_s"] = total(solves, "self")
    term_spans = [s for s in spans if s.request[0] == "term"]
    for which in ("initial", "boundary", "forcing"):
        roots = named(f"solvers.term.{which}", term_spans)
        ids = {id(s) for s in roots}
        m[f"solvers.term.{which}.s"] = total(roots)
        m[f"solvers.term.{which}.evals"] = sum(
            s.attrs["evals"] for s in term_spans
            if s.name == "quadrature.integrate" and s.error is None and id(s.parent) in ids)
    grids = named("solvers.solve_grid")
    m["solvers.solve_grid.calls"] = len(grids)
    m["solvers.solve_grid.s"] = total(grids)
    threads = {}
    for s in work:
        p = s.parent
        while p is not None and p.name != "solvers.solve_grid":
            p = p.parent
        if p is not None:
            threads.setdefault(id(p), set()).add(s.thread)
    m["solvers.solve_grid.threads"] = max((len(v) for v in threads.values()), default=0)
    verification = [s for s in work if s.name.startswith("verification.")]
    for check in ("energy_trace", "decay_supremum", "boundary_recovery", "oracle"):
        m[f"verification.{check}.s"] = total(named(f"verification.{check}"))
    m["verification.energy_trace.solves"] = sum(
        1 for s in solves if tracing.has_ancestor(s, "verification.energy_trace"))
    m["verification.self_s"] = total(verification, "self")
    m["cli.solve.s"] = total(named("cli.solve"))
    m["cli.verify.s"] = total(named("cli.verify"))
    m["cli.self_s"] = total([s for s in work if s.name.startswith("cli.")], "self")
    for layer in ("counterexamples", "reductions"):
        m[f"{layer}.s"] = total([s for s in named(layer) if not tracing.has_ancestor(s, layer)])
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    from utmqp.config import DEFAULT_CONFIG

    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        # resolved as solve_grid does when the CLI passes no --threads
        "solve_grid_threads": DEFAULT_CONFIG.threads or os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": lines,
    }


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                       "metrics": metrics})


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads as W

    pool = W.load_pool()
    setup_s = _setup_seconds(args.workload) if not args.trace else None
    problems = _problems(args.workload, pool)
    _warm_up(problems)
    info = {"workload": args.workload, **_environment(args.seed)}

    if args.workload == "sweep":
        inputs = W.select_sweep(pool, args.seed)
        tmp = ROOT / ".bench_tmp" / f"sweep-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            calls = _sweep_calls(inputs, tmp)
            results, wall, meter = _sweep_pass(calls)
            rss = _peak_rss_mb()
            judged = _judge_sweep(inputs, results, tmp)
            solves, session_latencies = _sweep_solves(meter)
            latencies = [session_latencies]
            if args.trace:
                outputs = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
                tracer = tracing.Tracer()
                _, traced_wall, _ = _sweep_pass(calls, tracer)
                identical = outputs == {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
                traced_solves, _ = _sweep_solves(tracer)
                identical = identical and traced_solves == solves
                overhead = traced_wall - wall
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            with contextlib.suppress(OSError):
                tmp.parent.rmdir()  # only when no other run still uses it
        info["calls"] = results
    else:
        rounds = max(1, min(4, int(args.seconds // ROUND_SECONDS[args.workload])))
        requests = W.select_requests(pool, args.workload, args.seed, rounds)
        info["rounds"] = rounds
        if args.trace:
            # every TRACE_SAMPLE-th request also runs untraced (overhead and
            # identity check) and once per datum (term split)
            sample = requests[::TRACE_SAMPLE]
            plain, _ = _request_pass(problems, sample)
            tracer = tracing.Tracer()
            outcomes, traced_wall = _request_pass(problems, requests, tracer)
            picked = outcomes[::TRACE_SAMPLE]
            identical = _values(plain) == _values(picked)
            overhead = sum(o["seconds"] for o in picked) - sum(o["seconds"] for o in plain)
            info["trace_sample"] = len(sample)
            with tracer:
                _term_pass(tracer, problems, sample, picked)
        else:
            outcomes, wall = _request_pass(problems, requests)
            rss = _peak_rss_mb()
        judged = _judge_requests(requests, outcomes)
        solves = judged["returned"]
        latencies = [[o["latency"] for r, o in zip(requests, outcomes) if r.round == k]
                     for k in range(rounds)]

    judged_info = {k: v for k, v in judged.items() if k not in ("attempted", "failed")}
    info["wrong_frac"] = _metric(judged["wrong"] / max(judged["returned"], 1), "share")
    info["checks"] = judged_info
    info["solves"] = solves
    # known defects (pool candidates recorded as wrong at the commit that
    # built the pool) count in wrong_frac; any other wrong value fails
    correct = judged["new_wrong"] == 0

    if args.trace:
        metrics = {name: _metric(v, "") for name, v in _layer_metrics(tracer).items()}
        probe_metrics, table = _probe(tracing.Tracer(tracing.LAYER_TARGETS))
        metrics.update({name: _metric(v, "") for name, v in probe_metrics.items()})
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics["trace.wall_s"] = _metric(traced_wall, "s")
        info["traced_identical"] = identical
        info["baseline_probe"] = table
        correct = correct and identical
        metrics = {name: _metric(m["value"], layer_unit(name)) for name, m in metrics.items()}
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall, "s"),
            "solves_per_s": _metric(solves / wall, "1/s"),
            "solve_ms.p50": _metric(1e3 * _round_percentile(latencies, 50), "ms"),
            "solve_ms.p90": _metric(1e3 * _round_percentile(latencies, 90), "ms"),
            "fail_frac": _metric(judged["raised"] / judged["attempted"], "share"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != declared:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    print(json.dumps({"info": info}, default=str))
    print(_result(correct, judged["attempted"], judged["failed"], metrics))
    return 0


def _declared_metrics(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "ms":
        return "ms"
    if last in ("s", "self_s", "overhead_s", "wall_s"):
        return "s"
    if ".err_over_tol." in name:
        return "ratio"
    if ".R." in name:
        return "radius"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="utmqp benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "utmqp" / "__init__.py").is_file():
        return _fail(f"no utmqp sources under {SRC}; run from a full checkout")
    if not (BENCH / "pool.json").is_file():
        return _fail("bench/pool.json is missing; build it with bench/make_pool.py")
    if args.setup_only:
        return _setup_only(args.workload)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
