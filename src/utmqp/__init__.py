"""Contour-integral (unified transform) solvers for the forced heat and
linear KdV equations on the quarter-plane x > 0, t > 0, plus numerical
verification of the well-posedness properties of those representations:
boundary/initial data recovery, uniform spatial decay, energy dissipation,
explicit non-uniqueness families, and Robin-to-Dirichlet reductions."""

from .config import DEFAULT_CONFIG, SolverConfig
from .contours import (
    Contour,
    LineSegment,
    Ray,
    heat_contour,
    indented_line,
    kdv_contour,
    ray_pair,
    real_line,
)
from .profiles import (
    DataProfile,
    ForcingProfile,
    ProblemSpec,
    builtin_forcing,
    builtin_profile,
    check_compatibility,
    load_problem,
    problem_from_dict,
    separable_forcing,
    zero_forcing,
)
from .quadrature import Integrand, QuadratureResult, integrate, ray_truncation
from .solvers import (
    FieldSample,
    solve,
    solve_derivative,
    solve_grid,
)
from .transforms import (
    grouped_time_transform,
    half_line_fourier,
    tail_expansion,
)
from .counterexamples import (
    heat_counterexample,
    heat_counterexample_field,
    hypothesis_violation_report,
    kdv_counterexample,
    kdv_counterexample_field,
    recipe_generate,
)
from .verification import (
    EnergyTrace,
    VerificationReport,
    boundary_recovery,
    decay_supremum,
    energy_trace,
    heat_oracle,
    kdv_fd_oracle,
    pde_residual,
)
from .reductions import (
    RobinSpec,
    oblique_phi_check,
    robin_map,
    robin_phi_check,
    robin_uniqueness_demo,
)

__version__ = "0.1.0"
