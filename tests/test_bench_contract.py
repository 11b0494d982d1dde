"""The names the benchmark tracer (``bench/tracing.py``) patches or reads.

The tracer wraps functions where the calling module binds them and labels
quadrature calls by the solver frame on the stack, so a renamed or
inlined function breaks a traced run.  These tests catch that without
running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from utmqp import solvers
from utmqp.profiles import ProblemSpec, builtin_profile, separable_forcing

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


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
