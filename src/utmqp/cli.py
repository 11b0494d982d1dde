"""Command-line interface.

Subcommands:

* ``solve``          evaluate the field on a grid, write CSV
* ``verify``         run verification checks, write a JSON report
* ``counterexample`` tabulate a non-uniqueness field + violation report
* ``reduce``         Robin / oblique-Robin reduction checks
* ``sweep``          grid evaluation for several derivative orders

Outputs are deterministic: fixed float formatting, sorted JSON keys, no
timestamps, and grid results merged in grid order regardless of thread
count.  Exit codes: 0 all checks pass, 1 a verification check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click
import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .contours import heat_contour, indented_line, kdv_contour
from .counterexamples import (
    heat_counterexample_field,
    hypothesis_violation_report,
    kdv_counterexample_field,
)
from .errors import UtmqpError
from .profiles import ProblemSpec, builtin_profile, load_problem, zero_forcing
from .reductions import oblique_phi_check, robin_phi_check
from .solvers import solve_grid, solve, solve_derivative
from .transforms import half_line_fourier
from .verification import (
    VerificationReport,
    boundary_recovery,
    decay_supremum,
    energy_trace,
    heat_oracle,
    kdv_fd_oracle,
    pde_residual,
)

_FLOAT_FMT = "{:.12e}"


def _fmt(v: float) -> str:
    return _FLOAT_FMT.format(float(v))


def _parse_axis(spec: str):
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise click.UsageError(f"bad axis spec {spec!r}, want lo:hi:n") from exc
    if n < 1:
        raise click.UsageError("axis needs at least one point")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise click.UsageError(f"axis bounds must be finite, got {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise click.UsageError("grid spec must be x0:x1:nx,t0:t1:nt")
    xs, ts = _parse_axis(parts[0]), _parse_axis(parts[1])
    if xs.min() <= 0 or ts.min() <= 0:
        raise click.UsageError("grid must lie strictly inside x > 0, t > 0")
    return xs, ts


def _load_problem(path: str) -> ProblemSpec:
    try:
        return load_problem(path)
    except FileNotFoundError as exc:
        raise click.UsageError(f"problem file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (UtmqpError, KeyError) as exc:
        raise click.UsageError(f"bad problem spec in {path}: {exc}") from exc


def _config(**flags) -> SolverConfig:
    """DEFAULT_CONFIG with the flags that were passed (not None)."""
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(DEFAULT_CONFIG, **given)


def _write_csv(path: str, header: str, rows) -> None:
    """``header`` then one line per row of values, each in ``_FLOAT_FMT``."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@click.group()
def main():
    """Quarter-plane contour-integral solvers and verification tools."""


@main.command("dump-contour")
@click.option("--name", required=True,
              type=click.Choice(["kdv", "heat", "line"]))
@click.option("--eps", type=float, default=1.0, show_default=True,
              help="height of the indented line (name=line)")
def dump_contour(name, eps):
    """Print a contour's segment list as JSON."""
    factories = {"kdv": kdv_contour, "heat": heat_contour}
    contour = indented_line(eps) if name == "line" else factories[name]()
    click.echo(contour.to_json(indent=2))


@main.command("dump-transform")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--lam-grid", required=True, help="re0:re1:n along the real axis")
@click.option("--out", "out_path", required=True, type=click.Path())
def dump_transform(problem_path, lam_grid, out_path):
    """Tabulate the initial datum's half-line transform on a lambda grid."""
    p = _load_problem(problem_path)
    lams = _parse_axis(lam_grid)
    vals = np.atleast_1d(half_line_fourier(p.u0, lams.astype(complex)))
    _write_csv(out_path, "re_lambda,im_lambda,re_uhat,im_uhat",
               [(lam, 0.0, v.real, v.imag) for lam, v in zip(lams, vals)])
    click.echo(f"wrote {len(lams)} transform samples to {out_path}")


@main.command("solve")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--grid", "grid_spec", required=True, help="x0:x1:nx,t0:t1:nt")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--tol", type=float, default=None,
              help=f"quadrature tolerance per term [default {DEFAULT_CONFIG.tol:g}]")
@click.option("--max-panels", type=int, default=None,
              help=f"adaptive panel budget [default {DEFAULT_CONFIG.max_panels}]")
@click.option("--threads", type=int, default=None)
def solve_cmd(problem_path, grid_spec, out_path, tol, max_panels, threads):
    """Evaluate the solution field on a grid and write CSV."""
    p = _load_problem(problem_path)
    xs, ts = _parse_grid(grid_spec)
    cfg = _config(tol=tol, max_panels=max_panels)
    samples = solve_grid(p, xs, ts, config=cfg, threads=threads)
    _write_csv(out_path, "x,t,U,err,term1,term2,term3,term4,term5", [
        (s.x, s.t, s.value, s.error_estimate, *(abs(v) for v in s.term_breakdown))
        for s in samples
    ])
    click.echo(f"wrote {len(samples)} samples to {out_path}")


@main.command("sweep")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--grid", "grid_spec", required=True)
@click.option("--orders", default="0,0", show_default=True,
              help="semicolon list of k,m derivative orders")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--tol", type=float, default=None)
@click.option("--threads", type=int, default=None)
def sweep_cmd(problem_path, grid_spec, orders, out_path, tol, threads):
    """Evaluate derivative fields d^{k+m}U/dx^k dt^m over a grid."""
    p = _load_problem(problem_path)
    xs, ts = _parse_grid(grid_spec)
    cfg = _config(tol=tol)
    try:
        pairs = [tuple(int(v) for v in part.split(",")) for part in orders.split(";")]
    except ValueError as exc:
        raise click.UsageError("orders must look like '0,0;1,0;0,1'") from exc
    columns = {}
    for k, m in pairs:
        samples = solve_grid(p, xs, ts, k=k, m=m, config=cfg, threads=threads)
        columns[(k, m)] = samples
    n = len(xs) * len(ts)
    base = columns[pairs[0]]
    _write_csv(out_path, "x,t," + ",".join(f"d{k}{m}" for k, m in pairs), [
        (base[i].x, base[i].t, *(columns[pair][i].value for pair in pairs))
        for i in range(n)
    ])
    click.echo(f"wrote {n} rows x {len(pairs)} orders to {out_path}")


def _check_residual(p, cfg):
    pts = [(0.7, 0.4), (1.3, 0.9)]
    forcing = None if p.f.is_zero() else (lambda x, t: float(p.f(x, t)))
    field = lambda x, t: solve(p, x, t, cfg).value
    worst_fd = max(abs(pde_residual(field, p.pde, x, t, 1e-2, forcing)) for x, t in pts)
    order = 3 if p.pde == "kdv" else 2
    worst_exact = 0.0
    for x, t in pts:
        ut = solve_derivative(p, 0, 1, x, t, cfg).value
        ux = solve_derivative(p, order, 0, x, t, cfg).value
        f_val = float(p.f(x, t)) if forcing else 0.0
        res = ut + ux - f_val if p.pde == "kdv" else ut - ux - f_val
        worst_exact = max(worst_exact, abs(res))
    return VerificationReport(
        name="residual",
        grid=f"points={pts}",
        measured={"fd_residual": worst_fd, "exact_integrand_residual": worst_exact},
        thresholds={"fd_residual": 1e-3, "exact_integrand_residual": 1e-6},
        passed=bool(worst_fd <= 1e-3 and worst_exact <= 1e-6),
    )


def _check_decay(p, cfg):
    out = decay_supremum(p, 0, 0, 2, T0=1.0, x_grid=(5.0, 10.0, 20.0), config=cfg)
    return VerificationReport(
        name="decay",
        grid="x in {5, 10, 20}, t in [1e-3, 1]",
        measured=out,
        thresholds={"decreasing": True, "finite": True},
        passed=bool(out["decreasing"] and out["finite"]),
    )


def _check_energy(p, cfg):
    homogeneous = p.g0.is_zero() and p.f.is_zero()
    if homogeneous:
        q = p
        note = "problem data"
    else:
        q = ProblemSpec(p.pde, builtin_profile("bump", a=1.0, b=3.0),
                        builtin_profile("zero"), zero_forcing())
        note = "canonical homogeneous problem (bump datum)"
    tr = energy_trace(q, T=0.8, n_t=2, t_start=0.3, config=cfg)
    rel = tr.max_relative_residual()
    return VerificationReport(
        name="energy",
        grid=f"t in {list(tr.t_grid)} ({note})",
        measured={"max_relative_residual": rel, "monotone": tr.monotone},
        thresholds={"max_relative_residual": 1e-3, "monotone": True},
        passed=bool(rel <= 1e-3 and tr.monotone),
    )


def _check_oracle(p, cfg):
    if p.pde == "heat":
        pts = [(x, t) for x in (0.3, 1.0, 2.4) for t in (0.2, 1.0)]
        worst = max(
            abs(solve(p, x, t, cfg).value - heat_oracle(p, x, t)) for x, t in pts
        )
        threshold = 1e-6
        grid = f"{len(pts)} points vs image-kernel oracle"
    else:
        fd = kdv_fd_oracle(p, L=30.0, nx=1500, nt=1000, T=1.0)
        pts = [(0.5, 0.5), (1.0, 0.5), (2.0, 1.0)]
        worst = max(
            abs(solve(p, x, t, cfg).value - fd(x, t)) / max(abs(fd(x, t)), 1e-10)
            for x, t in pts
        )
        threshold = 1e-2
        grid = f"{len(pts)} points vs finite-difference oracle"
    return VerificationReport(
        name="oracle",
        grid=grid,
        measured={"worst_discrepancy": worst},
        thresholds={"worst_discrepancy": threshold},
        passed=bool(worst <= threshold),
    )


_CHECKS = {
    "residual": _check_residual,
    "recovery": lambda p, cfg: boundary_recovery(p, config=cfg),
    "decay": _check_decay,
    "energy": _check_energy,
    "oracle": _check_oracle,
}


@main.command("verify")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--checks", default="residual,recovery,oracle", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--tol", type=float, default=None)
def verify_cmd(problem_path, checks, out_path, tol):
    """Run verification checks and report pass/fail per check."""
    p = _load_problem(problem_path)
    cfg = _config(tol=tol)
    names = [c.strip() for c in checks.split(",") if c.strip()]
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        raise click.UsageError(
            f"unknown checks {unknown}; available: {sorted(_CHECKS)}"
        )
    reports = [_CHECKS[name](p, cfg) for name in names]
    all_passed = all(r.passed for r in reports)
    if out_path:
        checks = [dataclasses.asdict(r) for r in reports]
        _write_json(out_path, {"checks": checks, "all_passed": all_passed,
                               "problem": p.to_dict()})
    for r in reports:
        click.echo(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
    sys.exit(0 if all_passed else 1)


@main.command("counterexample")
@click.option("--pde", type=click.Choice(["heat", "kdv"]), required=True)
@click.option("--n", "order", type=int, default=1, show_default=True)
@click.option("--grid", "grid_spec", default="0.2:2:7,0.1:1:5", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
def counterexample_cmd(pde, order, grid_spec, out_path, report_path):
    """Tabulate a non-uniqueness field and its hypothesis-violation report."""
    if order < 1:
        raise click.UsageError("--n must be >= 1")
    field = (
        heat_counterexample_field(order)
        if pde == "heat"
        else kdv_counterexample_field(order)
    )
    xs, ts = _parse_grid(grid_spec)
    if out_path:
        _write_csv(out_path, "x,t,u", [(x, t, field(x, t)) for x in xs for t in ts])
        click.echo(f"wrote {len(xs) * len(ts)} samples to {out_path}")
    rep = hypothesis_violation_report(field)
    payload = {
        "pde": pde,
        "order": order,
        "energy_exponent": rep.exponent,
        "violated": rep.violated,
        "summary": rep.summary(),
        "t_grid": list(rep.t_grid),
        "energies": list(rep.energies),
    }
    if report_path:
        _write_json(report_path, payload)
    click.echo(rep.summary())


@main.command("reduce")
@click.option("--mode", type=click.Choice(["robin", "oblique"]), required=True)
@click.option("--A", "a_coef", type=float, required=True)
@click.option("--B", "b_coef", type=float, required=True)
@click.option("--C", "c_coef", type=float, default=0.0, show_default=True)
@click.option("--report", "report_path", default=None, type=click.Path())
def reduce_cmd(mode, a_coef, b_coef, c_coef, report_path):
    """Check the boundary-kernel ODE of a Robin-to-Dirichlet reduction."""
    try:
        if mode == "robin":
            rep = robin_phi_check(a_coef, b_coef)
        else:
            rep = oblique_phi_check(a_coef, b_coef, c_coef)
    except UtmqpError as exc:
        raise click.UsageError(str(exc)) from exc
    payload = {"mode": mode, "A": a_coef, "B": b_coef, "C": c_coef,
               **dataclasses.asdict(rep)}
    if report_path:
        _write_json(report_path, payload)
    click.echo(f"{mode}: branch={rep.branch} max|phi|={rep.max_abs_phi:.3e} "
               f"{'PASS' if rep.passed else 'FAIL'}")
    sys.exit(0 if rep.passed else 1)


if __name__ == "__main__":
    main()
