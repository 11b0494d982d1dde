"""Acceptance suite: one test per sign-off criterion.

Each criterion runs at its stated tolerance and reports one PASS/FAIL
line on the real terminal (bypassing pytest capture), so a plain
``pytest tests/test_acceptance.py`` shows the per-criterion ledger.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import erfc

from utmqp.config import SolverConfig
from utmqp.counterexamples import (
    heat_counterexample,
    heat_counterexample_field,
    hypothesis_violation_report,
    kdv_counterexample,
    recipe_generate,
)
from utmqp.profiles import (
    ProblemSpec,
    builtin_profile,
    separable_forcing,
    zero_forcing,
)
from utmqp.reductions import (
    RobinSpec,
    oblique_phi_check,
    robin_phi_check,
    robin_uniqueness_demo,
)
from utmqp.solvers import solve, solve_derivative
from utmqp.verification import (
    boundary_recovery,
    decay_supremum,
    energy_trace,
    heat_oracle,
    kdv_fd_oracle,
    pde_residual,
)

TIGHT = SolverConfig(tol=1e-12)


def report(number: int, passed: bool, detail: str):
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {status}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {number}: {detail}"


def heat_problem():
    return ProblemSpec(
        "heat",
        builtin_profile("exp_decay", a=1.0),
        builtin_profile("exp_of_t", a=-1.0),
        zero_forcing(),
    )


def kdv_problem():
    return ProblemSpec(
        "kdv",
        builtin_profile("exp_decay", a=1.0),
        builtin_profile("exp_of_t", a=-1.0),
        zero_forcing(),
    )


def bump_problem(pde):
    return ProblemSpec(
        pde,
        builtin_profile("bump", a=1.0, b=3.0),
        builtin_profile("zero"),
        zero_forcing(),
    )


def test_criterion_01_heat_against_image_kernel_oracle():
    p = heat_problem()
    worst = 0.0
    for x in np.linspace(0.1, 3.0, 5):
        for t in np.linspace(0.1, 2.0, 5):
            diff = abs(solve(p, x, t).value - heat_oracle(p, x, t))
            worst = max(worst, diff)
    report(1, worst <= 1e-6,
           f"heat solver vs image-kernel oracle, max |diff| = {worst:.3e} "
           f"on the 5x5 grid (tol 1e-6)")


def test_criterion_02_step_datum_closed_form():
    p = ProblemSpec(
        "heat",
        builtin_profile("zero"),
        builtin_profile("constant", c=1.0),
        zero_forcing(),
    )
    pts = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (0.3, 0.2), (1.5, 1.8)]
    worst = max(
        abs(solve(p, x, t).value - erfc(x / (2.0 * math.sqrt(t)))) for x, t in pts
    )
    report(2, worst <= 1e-6,
           f"step-datum field vs erfc closed form, max |diff| = {worst:.3e} "
           f"at 5 probes (tol 1e-6)")


def test_criterion_03_kdv_against_finite_difference_oracle():
    p = kdv_problem()
    fd = kdv_fd_oracle(p, L=30.0, nx=1500, nt=1000, T=1.0)
    worst_rel = 0.0
    worst_est = 0.0
    for x, t in [(0.5, 0.5), (1.0, 0.5), (2.0, 1.0)]:
        s = solve(p, x, t)
        rel = abs(s.value - fd(x, t)) / abs(fd(x, t))
        worst_rel = max(worst_rel, rel)
        worst_est = max(worst_est, s.error_estimate)
    oracle_dominates = fd.richardson_error > 10.0 * worst_est
    report(3, worst_rel <= 1e-2 and oracle_dominates,
           f"kdv solver vs finite-difference oracle, max rel = {worst_rel:.3e} "
           f"(tol 1e-2); richardson {fd.richardson_error:.1e} dominates solver "
           f"budget {worst_est:.1e}")


def test_criterion_04_pde_residuals():
    fx = builtin_profile("exp_decay", a=1.0)
    ft = builtin_profile("exp_of_t", a=-1.0)
    heat_forced = ProblemSpec(
        "heat", builtin_profile("zero"), builtin_profile("zero"),
        separable_forcing(fx, ft),
    )
    worst = 0.0
    xs = np.linspace(0.4, 2.2, 4)
    ts = np.linspace(0.3, 1.5, 4)
    for x in xs:
        for t in ts:
            ut = solve_derivative(heat_forced, 0, 1, x, t).value
            uxx = solve_derivative(heat_forced, 2, 0, x, t).value
            worst = max(worst, abs(ut - uxx - float(heat_forced.f(x, t))))
    p_kdv = kdv_problem()
    for x in xs:
        for t in ts:
            ut = solve_derivative(p_kdv, 0, 1, x, t).value
            uxxx = solve_derivative(p_kdv, 3, 0, x, t).value
            worst = max(worst, abs(ut + uxxx))
    # forced cubic spot checks
    kdv_forced = ProblemSpec(
        "kdv", builtin_profile("zero"), builtin_profile("zero"),
        separable_forcing(fx, builtin_profile("constant", c=1.0)),
    )
    for x, t in [(0.7, 0.5), (1.4, 1.0)]:
        ut = solve_derivative(kdv_forced, 0, 1, x, t).value
        uxxx = solve_derivative(kdv_forced, 3, 0, x, t).value
        worst = max(worst, abs(ut + uxxx - float(kdv_forced.f(x, t))))

    # finite-difference residuals converge at order >= 1.8 under halving
    p = heat_problem()
    field = lambda x, t: solve(p, x, t, TIGHT).value
    hs = [3.2e-2, 1.6e-2, 8e-3]
    res = [abs(pde_residual(field, "heat", 1.0, 1.0, h)) for h in hs]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    report(4, worst <= 1e-6 and all(o >= 1.8 for o in orders),
           f"exact-integrand residuals, max = {worst:.3e} on 4x4 grids "
           f"(tol 1e-6); FD residual orders {orders[0]:.2f}, {orders[1]:.2f} "
           f"(need >= 1.8)")


def test_criterion_05_boundary_and_initial_recovery():
    details = []
    ok = True
    for p in (heat_problem(), kdv_problem()):
        rep = boundary_recovery(p, t_points=(0.5, 1.0), x_points=(0.5, 1.0, 2.0))
        ok = (ok and rep.passed and rep.thresholds == {"final_error": 1e-2}
              and rep.grid.startswith("probes=[0.1, 0.01, 0.001]"))
        details.append(
            f"{p.pde}: boundary {rep.measured['boundary_final_error']:.2e}, "
            f"initial {rep.measured['initial_final_error']:.2e}, "
            f"monotone={rep.measured['monotone']}"
        )
    report(5, ok, "recovery at probes {1e-1,1e-2,1e-3} (tol 1e-2): "
           + "; ".join(details))


def test_criterion_06_uniform_spatial_decay():
    triples = [(0, 0, 0), (0, 0, 2), (1, 0, 1), (0, 1, 0)]
    ok = True
    notes = []
    for p in (kdv_problem(), heat_problem()):
        for k, m, ell in triples:
            out = decay_supremum(
                p, k, m, ell, T0=1.0, x_grid=(5.0, 10.0, 20.0), t_min=1e-3
            )
            good = out["finite"] and out["decreasing"]
            ok = ok and good
            if not good:
                notes.append(f"{p.pde} (k,m,l)=({k},{m},{ell}): {out['suprema']}")
    report(6, ok,
           "weighted suprema over t in [1e-3, 1] finite and decreasing "
           "along x in {5, 10, 20} for (k,m,l) in {(0,0,0),(0,0,2),(1,0,1),"
           "(0,1,0)}, both families"
           + ("" if ok else "; violations: " + "; ".join(notes)))


def test_criterion_07_energy_dissipation_identities():
    # cubic: dE/dt = -[W_x(0,t)]^2
    pk = bump_problem("kdv")
    field_k = lambda x, t: solve(pk, x, t).value
    tr_k = energy_trace(field_k, "kdv", T=1.0, n_t=3, t_start=0.2)
    rel_k = tr_k.max_relative_residual()
    # heat: dE/dt = -2 int W_x^2 dx, exact slope from the representation
    ph = bump_problem("heat")
    field_h = lambda x, t: solve(ph, x, t).value
    slope_h = lambda x, t: solve_derivative(ph, 1, 0, x, t).value
    tr_h = energy_trace(field_h, "heat", T=1.0, n_t=3, t_start=0.2,
                        slope_field=slope_h)
    rel_h = tr_h.max_relative_residual()
    ok = rel_k <= 1e-3 and rel_h <= 1e-3 and tr_k.monotone and tr_h.monotone
    report(7, ok,
           f"energy identities on homogeneous fields: cubic rel residual "
           f"{rel_k:.2e}, heat rel residual {rel_h:.2e} (tol 1e-3); "
           f"E nonincreasing: {tr_k.monotone and tr_h.monotone}")


def test_criterion_08_nonuniqueness_witnesses():
    checks = {}
    checks["heat u1(1,1e-3) < 1e-12"] = abs(heat_counterexample(1, 1.0, 1e-3)) < 1e-12
    checks["heat u1(1e-3,1) <= 1e-3"] = abs(heat_counterexample(1, 1e-3, 1.0)) <= 1e-3
    grid_max = max(
        abs(heat_counterexample(1, x, t))
        for x in (0.5, 1.0, 1.5, 2.0)
        for t in (0.2, 0.5, 1.0)
    )
    checks["heat max|u1| >= 0.2"] = grid_max >= 0.2
    h = 1e-4
    res = max(
        abs(
            (heat_counterexample(1, x, t + h) - heat_counterexample(1, x, t - h))
            / (2 * h)
            - (
                heat_counterexample(1, x + h, t)
                - 2 * heat_counterexample(1, x, t)
                + heat_counterexample(1, x - h, t)
            )
            / (h * h)
        )
        for x, t in [(1.0, 1.0), (0.8, 0.6)]
    )
    checks["heat residual <= 1e-6"] = res <= 1e-6
    eps_gap = abs(
        kdv_counterexample(1, 1.0, 1.0, eps=0.5)
        - kdv_counterexample(1, 1.0, 1.0, eps=1.0)
    )
    checks["kdv eps-independence <= 1e-8"] = eps_gap <= 1e-8
    kdv_max = max(
        abs(kdv_counterexample(1, x, t)) for x in (0.5, 1.0, 2.0) for t in (0.5, 1.0)
    )
    checks["kdv nonvanishing > 1e-3"] = kdv_max > 1e-3
    rec_h = recipe_generate("heat", builtin_profile("constant", c=1.0), 1)
    checks["recipe reproduces heat u1 to 1e-6"] = (
        abs(rec_h(1.0, 1.0) - heat_counterexample(1, 1.0, 1.0)) <= 1e-6
    )
    rec_k = recipe_generate("kdv", builtin_profile("constant", c=1.0), 1)
    checks["recipe reproduces kdv u1 to 1e-6"] = (
        abs(rec_k(1.0, 1.0) - kdv_counterexample(1, 1.0, 1.0)) <= 1e-6
    )
    failures = [name for name, good in checks.items() if not good]
    report(8, not failures,
           "non-uniqueness witnesses: all sub-checks pass"
           if not failures else f"failed sub-checks: {failures}")


def test_criterion_09_hypothesis_violation_exponent():
    # brute-force verification of the analytic energy law first
    analytic = math.sqrt(2.0) / (8.0 * math.sqrt(math.pi))
    t0 = 0.1
    xs = np.linspace(1e-8, 40.0 * math.sqrt(t0), 200001)
    brute = float(
        np.trapezoid(np.array([heat_counterexample(1, x, t0) for x in xs]) ** 2, xs)
    )
    law_ok = abs(brute - analytic * t0**-1.5) <= 1e-6 * analytic * t0**-1.5
    rep = hypothesis_violation_report(heat_counterexample_field(1))
    ok = (law_ok and rep.t_grid[-1] == 0.5 and rep.exponent is not None
          and abs(rep.exponent + 1.5) <= 0.05)
    report(9, ok,
           f"energy growth exponent {rep.exponent:.4f} (target -1.5 +- 0.05); "
           f"analytic law verified by brute integral to "
           f"{abs(brute - analytic * t0 ** -1.5):.2e}")


def test_criterion_10_reduction_algebra():
    rng = np.random.default_rng(7)
    sweep_ok = True
    for _ in range(100):
        a, b, c = rng.uniform(0.05, 10.0, size=3)
        if not robin_phi_check(a, b).passed:
            sweep_ok = False
        if not oblique_phi_check(a, b, c).passed:
            sweep_ok = False
    demo = robin_uniqueness_demo(
        heat_problem(), RobinSpec(1.0, 1.0, 0.0),
        xs=(0.4, 0.8, 1.2, 1.6, 2.0), ts=(0.4, 0.8, 1.2), threshold=2e-6,
    )
    report(10, sweep_ok and demo.passed,
           f"100-sample positive-parameter sweeps return phi = 0; cross-"
           f"oracle Robin image gap {demo.max_abs_delta:.2e} (tol 2e-6)")


def test_criterion_11_cli_determinism(tmp_path):
    from click.testing import CliRunner
    from utmqp.cli import main as cli_main

    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "pde": "heat",
        "u0": {"name": "exp_decay", "a": 1.0},
        "g0": {"name": "exp_of_t", "a": -1.0},
        "f": {"name": "zero"},
    }))
    runner = CliRunner()
    blobs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"f_{tag}.csv"
        rep_path = tmp_path / f"r_{tag}.json"
        res = runner.invoke(cli_main, [
            "solve", "--problem", str(problem),
            "--grid", "0.4:2:3,0.3:1:3", "--out", str(csv_path), "--threads", "2",
        ])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, [
            "verify", "--problem", str(problem), "--checks", "residual",
            "--out", str(rep_path),
        ])
        assert res.exit_code == 0, res.output
        blobs.append(csv_path.read_bytes() + rep_path.read_bytes())
    report(11, blobs[0] == blobs[1],
           "repeated CLI runs (solve + verify) produce byte-identical outputs")
