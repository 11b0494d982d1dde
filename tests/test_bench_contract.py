"""The names the benchmark harness (``bench/``) patches or reads.

The tracer (``bench/tracing.py``) wraps functions where the calling
module binds them and labels quadrature calls by the solver frame on the
stack, so a renamed or inlined function breaks a traced run.  The runner
(``bench/run.py``) reads the solver configuration when it records its
environment.  These tests catch such breaks without running a workload.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from utmqp import solvers
from utmqp.profiles import (
    ProblemSpec,
    builtin_profile,
    separable_forcing,
    zero_forcing,
)

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", "tracing.py")


def test_bench_selftest_passes():
    # seeds, shared-t, metric names and traced-identical values, in ~3 s
    done = subprocess.run(
        [sys.executable, str(_BENCH / "selftest.py")],
        cwd=_BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_bench_environment_resolves():
    env = _load("bench_run", "run.py")._environment(0)
    assert env["solve_grid_threads"] >= 1
    assert env["src_lines"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_calls_parse_against_the_cli(seed, tmp_path, monkeypatch):
    # the sweep session's CLI calls only fail at run time otherwise; parse
    # each argument list as click would, without invoking a command
    from utmqp.cli import main

    monkeypatch.syspath_prepend(str(_BENCH))
    run = _load("bench_run", "run.py")
    workloads = importlib.import_module("workloads")
    inputs = workloads.select_sweep(workloads.load_pool(), seed)
    calls = run._sweep_calls(inputs, tmp_path)
    assert calls
    for command, _, args in calls:
        with main.make_context("utmqp", list(args)) as ctx:
            name, cmd, rest = main.resolve_command(ctx, list(args))
            assert name == command
            cmd.make_context(name, rest, parent=ctx)


@pytest.mark.parametrize(
    "module,attr", sorted({(target[0], target[1]) for target in tracing.LAYER_TARGETS})
)
def test_layer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(tracing.TERM_FRAMES))
def test_term_frame_is_a_solvers_function(name):
    fn = getattr(solvers, name)
    assert inspect.isfunction(fn) and fn.__code__.co_name == name


def traced_forced_solve(pde):
    """(untraced sample, traced sample, tracer) of a solve with all five
    terms switched on, quadrature spans labelled by term."""
    f = separable_forcing(
        builtin_profile("exp_decay", a=1.0), builtin_profile("sin_of_t", omega0=1.0)
    )
    p = ProblemSpec(
        pde, builtin_profile("exp_decay", a=1.0), builtin_profile("exp_of_t", a=-1.0), f
    )
    plain = solvers.solve(p, 1.5, 0.5)
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    tracer.label_terms = True
    with tracer:
        traced = solvers.solve(p, 1.5, 0.5)
    return plain, traced, tracer


@pytest.mark.parametrize("pde", ["heat", "kdv"])
def test_traced_solve_labels_every_term(pde):
    plain, traced, tracer = traced_forced_solve(pde)
    assert traced == plain
    labels = {
        s.attrs["term"] for s in tracer.spans if s.name == "quadrature.integrate"
    }
    assert labels == set(tracing.TERM_FRAMES.values())


def term_of(span):
    """The term label of the nearest labelled quadrature span above ``span``."""
    parent = span.parent
    while parent is not None:
        if parent.name == "quadrature.integrate":
            return parent.attrs["term"]
        parent = parent.parent
    return None


@pytest.mark.parametrize("pde", ["heat", "kdv"])
def test_forcing_terms_trace_their_transforms(pde):
    # the per-layer view of the forcing terms: the solver must call the
    # transforms through its module globals at call time, or these spans
    # vanish from the trace
    _, _, tracer = traced_forced_solve(pde)
    seen = {(term_of(s), s.name) for s in tracer.spans if s.name.startswith("transforms.")}
    for term in ("force_line", "force_wedge"):
        for name in ("transforms.grouped_time_transform", "transforms.half_line_fourier"):
            assert (term, name) in seen


def test_no_solve_subtracts_an_expansion():
    # every term integrates its whole integrand, so no solve reaches the
    # tail expansion or an envelope fit: unforced, forced on the decaying
    # tails, or forced by a bump (the untilted tails)
    zero = builtin_profile("zero")
    bump = separable_forcing(
        builtin_profile("bump", a=0.5, b=2.0), builtin_profile("constant", c=1.0)
    )
    for pde in ("heat", "kdv"):
        unforced = ProblemSpec(pde, builtin_profile("exp_decay", a=1.0), zero, zero_forcing())
        with tracing.Tracer(tracing.LAYER_TARGETS) as tracer:
            solvers.solve(unforced, 1.5, 0.5)
            solvers.solve(ProblemSpec(pde, zero, zero, bump), 1.5, 0.5)
        _, _, forced = traced_forced_solve(pde)
        for spans in (tracer.spans, forced.spans):
            names = {s.name for s in spans}
            assert "quadrature.integrate" in names
            assert not {"transforms.tail_expansion", "quadrature.envelope"} & names


def forcing_truncations(pde, space, x):
    """The truncation spans of a solve whose only datum is the forcing
    ``space`` x sin(t), at (x, 0.5)."""
    zero = builtin_profile("zero")
    f = separable_forcing(space, builtin_profile("sin_of_t", omega0=1.0))
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    tracer.label_terms = True
    with tracer:
        solvers.solve(ProblemSpec(pde, zero, zero, f), x, 0.5)
    terms = {s.attrs["term"] for s in tracer.spans if s.name == "quadrature.integrate"}
    assert terms == {"force_line", "force_wedge"}
    return [s for s in tracer.spans if s.name == "quadrature.truncation"]


@pytest.mark.parametrize("pde", ["heat", "kdv"])
@pytest.mark.parametrize("space", ["exp_decay", "gaussian"])
def test_forcing_tails_decay_without_truncation(pde, space):
    # a space factor whose transform continues above the axis sends the
    # forcing integrand whole onto the split's decaying tails, where the
    # double-exponential rule finds its own cutoff
    assert not forcing_truncations(pde, builtin_profile(space, a=1.0), 1.5)


@pytest.mark.parametrize("pde", ["heat", "kdv"])
def test_bump_keeps_the_untilted_tails(pde):
    # the continued bump transform grows like e^{b Im lam}; computed apart
    # from e^{i lam x} it overflows on the tilted tails even for x > b, so
    # a bump's tails stay on the axis and are truncated, inside its
    # support and past it
    bump = builtin_profile("bump", a=0.5, b=2.0)
    assert forcing_truncations(pde, bump, 1.5)
    assert forcing_truncations(pde, bump, 3.0)


def test_boundary_term_traces_its_evaluations_without_truncation():
    # the boundary term's rays are integrated by integrate's double-
    # exponential rule, which finds its own cutoff: the integrate spans
    # keep their evaluation counts and no ray_truncation span appears
    zero = builtin_profile("zero")
    p = ProblemSpec("kdv", zero, builtin_profile("constant", c=1.0), zero_forcing())
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    tracer.label_terms = True
    with tracer:
        solvers.solve_derivative(p, 1, 0, 1e-5, 0.5)
    integ = [s for s in tracer.spans if s.name == "quadrature.integrate"]
    assert integ and all(s.attrs["term"] == "boundary" for s in integ)
    assert all(s.attrs["evals"] > 0 for s in integ)
    assert not [s for s in tracer.spans if s.name == "quadrature.truncation"]


def test_energy_trace_solves_nest_under_its_span():
    # verification.energy_trace.solves counts the solver spans below the
    # check's span; energy_trace must call the solver through the
    # verification module's globals for the count to stay live
    from utmqp import cli

    zero = builtin_profile("zero")
    p = ProblemSpec("heat", zero, zero, zero_forcing())
    with tracing.Tracer(tracing.LAYER_TARGETS) as tracer:
        cli.energy_trace(p, T=0.5, n_t=1, t_start=0.5)
    solves = [s for s in tracer.spans if s.name == "solvers.solve"]
    assert solves
    assert all(tracing.has_ancestor(s, "verification.energy_trace") for s in solves)
