"""From-scratch constrained-optimization machinery.

The paper solved its two design problems (Figures 1 and 2) with AMPL +
BONMIN.  This package provides the equivalent capability without external
solvers:

- :mod:`~repro.solvers.interior_point` — a log-barrier Newton method for
  smooth convex objectives over linear inequality constraints; the primary
  solver for the enforced-waits problem.
- :mod:`~repro.solvers.kkt` — an exact KKT "waterfilling" solver for the
  separable relaxation (box + single budget constraint); a fast path that
  certifies its own optimality when chain constraints are slack.
- :mod:`~repro.solvers.projected_gradient` — projected gradient descent
  with an exact projection onto box-plus-budget sets.
- :mod:`~repro.solvers.bisection`, :mod:`~repro.solvers.grid`,
  :mod:`~repro.solvers.line_search` —
  scalar/utility routines used by the above and by the monolithic scan.
- :mod:`~repro.solvers.fallback` — resilient orchestration: an ordered
  chain of solver rungs with perturbed-restart retries and explicit
  feasibility certificates, so planning degrades gracefully instead of
  aborting on one method's numerical failure.

All solvers return :class:`~repro.solvers.result.SolverResult` so callers
and tests can inspect convergence status and optimality residuals.
"""

from repro.solvers.result import SolverResult, SolverStatus
from repro.solvers.bisection import bisect_root, bisect_decreasing
from repro.solvers.fallback import (
    FallbackRung,
    FeasibilityCertificate,
    certify_linear,
    perturbation_scale,
    solve_with_fallback,
)
from repro.solvers.grid import best_feasible_index, grid_min
from repro.solvers.line_search import backtracking_armijo
from repro.solvers.kkt import project_box_budget, waterfill_box_budget
from repro.solvers.interior_point import barrier_solve
from repro.solvers.projected_gradient import projected_gradient_min

__all__ = [
    "SolverResult",
    "SolverStatus",
    "bisect_root",
    "bisect_decreasing",
    "grid_min",
    "best_feasible_index",
    "backtracking_armijo",
    "waterfill_box_budget",
    "project_box_budget",
    "barrier_solve",
    "projected_gradient_min",
    "FallbackRung",
    "FeasibilityCertificate",
    "certify_linear",
    "perturbation_scale",
    "solve_with_fallback",
]
