"""Numerical configuration knobs.

The tolerance, budgets and expansion length that callers tune per run
live here so the CLI can surface them as flags and test code can tighten
them locally.  The contour geometry (ray rotations), the heat
stabilization threshold and the derivative-order cap are fixed by the
method and live with the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    # absolute quadrature tolerance per integral term
    tol: float = 1e-9
    # adaptive subdivision budget per contour piece
    max_panels: int = 20000
    # hard cap for ray truncation searches
    r_max: float = 1e6
    # max accumulated phase of e^{i lambda x - w t} per quadrature panel
    phase_cap: float = 8.0 * math.pi
    # number of terms kept in the large-lambda tail expansions of the
    # half-line transforms (raised automatically with derivative order)
    tail_terms: int = 6
    # number of worker threads for grid sweeps (None: os.cpu_count())
    threads: int | None = None


DEFAULT_CONFIG = SolverConfig()
