"""Outside-in spans around the public entry points of each utmqp layer.

A :class:`Tracer` replaces a function where the *calling* module binds it
(``utmqp.solvers.integrate``, ``utmqp.cli.solve_grid``, ...) with a wrapper
that records one span per call: name, start, end, parent span, request id,
whether it raised, and a few attributes read from the arguments or the
result.  Spans stay in memory until the run ends; nothing under ``src/``
changes.  The wrappers return the wrapped function's result unchanged, so
traced and untraced runs compute bit-identical values.

Parent tracking is per thread.  A span opened on a worker thread whose
own stack is empty (``solve_grid`` fans points out to a thread pool) takes
the innermost open span of the main thread as its parent.
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np

TRANSFORM_FUNCTIONS = (
    "half_line_fourier",
    "tail_expansion",
    "grouped_time_transform",
    "forcing_transform",
    "grouped_forcing_time_transform",
    "grouped_forcing_tail_time_transform",
    "forcing_tail_expansion",
)

# frames of utmqp.solvers that own each spectral term; used only to split
# the baseline probe's per-term table into line and wedge pieces
TERM_FRAMES = {
    "_initial_real_term": "init_line",
    "_initial_wedge_term": "init_wedge",
    "_boundary_term": "boundary",
    "_forcing_real_term": "force_line",
    "_forcing_wedge_term": "force_wedge",
}


class Span:
    __slots__ = ("name", "parent", "request", "thread", "start", "end", "error", "attrs")

    def __init__(self, name, parent, request, thread):
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.error = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _integrate_attrs(args, kwargs, out):
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    if tol is None:
        config = args[3] if len(args) > 3 else kwargs.get("config")
        tol = config.tol if config is not None else None
    return {"evals": int(out.evaluations), "err": float(out.error_estimate), "tol": tol}


def _size_attrs(args, kwargs, out):
    return {"points": int(np.size(out))}


def _radius_attrs(args, kwargs, out):
    return {"R": float(out)}


def _grid_attrs(args, kwargs, out):
    return {"points": len(out)}


def _term_label():
    """Which spectral term of utmqp.solvers is on the call stack."""
    import sys

    frame = sys._getframe(2)
    while frame is not None:
        label = TERM_FRAMES.get(frame.f_code.co_name)
        if label is not None:
            return label
        frame = frame.f_back
    return "unattributed"


# (module, attribute, span name, attribute reader); "requests" level times
# only the solver evaluations a CLI session issues, "layers" adds every
# layer boundary
REQUEST_TARGETS = (
    ("utmqp.cli", "solve", "solvers.solve", None),
    ("utmqp.cli", "solve_derivative", "solvers.solve", None),
    ("utmqp.verification", "solve", "solvers.solve", None),
    ("utmqp.verification", "solve_derivative", "solvers.solve", None),
    ("utmqp.cli", "solve_grid", "solvers.solve_grid", _grid_attrs),
)
LAYER_TARGETS = REQUEST_TARGETS + (
    ("utmqp.solvers", "integrate", "quadrature.integrate", _integrate_attrs),
    ("utmqp.quadrature", "ray_truncation", "quadrature.truncation", _radius_attrs),
    ("utmqp.solvers", "power_law_envelope", "quadrature.envelope", None),
) + tuple(
    ("utmqp.solvers", fn, f"transforms.{fn}", _size_attrs) for fn in TRANSFORM_FUNCTIONS
) + (
    ("utmqp.cli", "energy_trace", "verification.energy_trace", None),
    ("utmqp.cli", "decay_supremum", "verification.decay_supremum", None),
    ("utmqp.cli", "boundary_recovery", "verification.boundary_recovery", None),
    ("utmqp.cli", "heat_oracle", "verification.oracle", None),
    ("utmqp.cli", "kdv_fd_oracle", "verification.oracle", None),
    ("utmqp.cli", "heat_counterexample_field", "counterexamples", None),
    ("utmqp.cli", "kdv_counterexample_field", "counterexamples", None),
    ("utmqp.cli", "hypothesis_violation_report", "counterexamples", None),
    ("utmqp.cli", "robin_phi_check", "reductions", None),
    ("utmqp.cli", "oblique_phi_check", "reductions", None),
)


class Tracer:
    """Collects spans from wrapped entry points.

    Use as a context manager: entering patches the targets, leaving
    restores the original bindings.
    """

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = targets
        # when set, integrate spans record which spectral term called them
        self.label_terms = False
        self.spans: list[Span] = []
        self.request = None
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._saved = []

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name, fn, reader=None):
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = Span(name, self._parent(stack), self.request, tid)
            if self.label_terms and name == "quadrature.integrate":
                span.attrs = {"term": _term_label()}
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if reader is not None:
                extra = reader(args, kwargs, out)
                span.attrs = {**(span.attrs or {}), **extra}
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, name, reader in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, reader))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """id(span) -> duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children.get(id(s))
        if not kids:
            out[id(s)] = s.duration
            continue
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids if b > s.start and a < s.end]
        out[id(s)] = max(s.duration - _covered(clipped), 0.0)
    return out


def has_ancestor(span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False
