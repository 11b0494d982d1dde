"""Self-tests of the benchmark itself (not of utmqp).

    python3 bench/selftest.py

Checks that each seed generates the same inputs, that no two requests of
a ``points``/``forced`` run share a ``t``, that traced and untraced runs
return bit-identical values, and that every metric name is well formed.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = range(12)


def check_seeds_reproduce(pool):
    for wl in ("points", "forced"):
        for seed in SEEDS:
            a = W.select_requests(pool, wl, seed, 2)
            assert a == W.select_requests(pool, wl, seed, 2), f"{wl} seed {seed} not reproducible"
        assert W.select_requests(pool, wl, 0, 1) != W.select_requests(pool, wl, 1, 1)
    for seed in SEEDS:
        assert W.select_sweep(pool, seed) == W.select_sweep(pool, seed)
    assert W.select_sweep(pool, 0) != W.select_sweep(pool, 1)


def check_no_shared_t(pool):
    for wl in ("points", "forced"):
        for seed in SEEDS:
            for rounds in (1, 4):
                ts = [r.t for r in W.select_requests(pool, wl, seed, rounds)]
                assert len(ts) == len(set(ts)), f"{wl} seed {seed}: requests share a t"


def check_traced_identical(pool):
    problems = R._problems("points", pool)
    requests = [r for r in W.select_requests(pool, "points", 3, 1) if r.cls.startswith("heat")][:12]
    plain = R._run_requests(problems, requests)
    tracer = tracing.Tracer()
    with tracer:
        from utmqp.solvers import solve_derivative

        traced = R._run_requests(problems, requests, tracer.wrap("solvers.solve", solve_derivative))
    assert R._values(plain) == R._values(traced), "traced request values differ"
    assert any(s.name == "quadrature.integrate" for s in tracer.spans), "no integrate spans"

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        inputs = W.select_sweep(pool, 5)
        calls = [c for c in R._sweep_calls(inputs, Path(tmp)) if c[1] in ("grid.heat", "reduce")]
        R._sweep_pass(calls)
        first = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        R._sweep_pass(calls, tracing.Tracer())
        second = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    assert first == second, "traced CLI outputs differ"


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "duplicate names"
    for name in names:
        assert NAME.match(name), f"bad metric name {name!r}"
    for m in spec["per_layer"]:
        assert R.layer_unit(m["name"]) == m["unit"], f"unit of {m['name']} disagrees with run.py"


def main() -> int:
    pool = W.load_pool()
    for check in (check_seeds_reproduce, check_no_shared_t, check_metric_names,
                  check_traced_identical):
        check(pool) if check is not check_metric_names else check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
