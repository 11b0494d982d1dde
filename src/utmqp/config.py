"""Numerical configuration knobs.

The tolerance and panel budget that callers tune per run live here so
the CLI can surface them as flags and test code can tighten them
locally; ``threads`` is the grid sweeps' worker count.  Everything else
is fixed by the method and lives as a constant with its user: the
contour geometry, the tilt cap and the derivative-order cap in
:mod:`utmqp.solvers`, the phase cap per panel, the ray-truncation cap and
the double-exponential rule's cutoff and step schedule in
:mod:`utmqp.quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    # absolute quadrature tolerance per integral term
    tol: float = 1e-9
    # adaptive subdivision budget per contour piece
    max_panels: int = 20000
    # number of worker threads for grid sweeps (None: os.cpu_count())
    threads: int | None = None


DEFAULT_CONFIG = SolverConfig()
