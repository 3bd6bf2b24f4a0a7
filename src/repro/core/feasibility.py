"""Feasibility analysis for the two strategies.

For the enforced-waits problem the feasible region in firing periods
``x_i = t_i + w_i`` is the polyhedron::

    t_i <= x_i,     x_0 <= v * tau0,     g_{i-1} x_i <= x_{i-1},
    sum_i b_i x_i <= D

Because the chain inequalities lower-bound *upstream* periods in terms of
downstream ones, the componentwise-minimal consistent point is computed by
a backward recursion; the region is nonempty iff that point satisfies the
head-rate cap and the deadline budget.  The minimal point also yields the
smallest feasible deadline and fastest feasible arrival rate, used to
delimit sweeps (the paper notes no strategy was feasible below
``D = 2e4`` for BLAST).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.core.model import RealTimeProblem
from repro.dataflow.spec import PipelineSpec
from repro.errors import SpecError

__all__ = [
    "EnforcedFeasibility",
    "enforced_feasibility",
    "minimal_periods",
    "min_deadline_enforced",
    "min_tau0_enforced",
    "min_tau0_monolithic",
    "monolithic_feasible_blocks",
]


@dataclass(frozen=True)
class EnforcedFeasibility:
    """Outcome of the enforced-waits feasibility check.

    ``x_min`` is the componentwise-minimal consistent period vector; when
    ``feasible`` is False, ``diagnosis`` names the violated constraint
    family.
    """

    feasible: bool
    x_min: np.ndarray
    diagnosis: str | None = None


def minimal_periods(pipeline: PipelineSpec) -> np.ndarray:
    """Componentwise-minimal periods satisfying bounds and chain constraints.

    Backward recursion: ``x_{N-1} = t_{N-1}``;
    ``x_{i-1} = max(t_{i-1}, g_{i-1} * x_i)`` — upstream must fire at least
    as often (scaled by gain) as downstream requires.
    """
    t = pipeline.service_times.tolist()
    g = pipeline.mean_gains.tolist()
    x = t[:]
    for i in range(len(x) - 1, 0, -1):
        x[i - 1] = max(t[i - 1], g[i - 1] * x[i])
    return np.array(x, dtype=float)


def enforced_feasibility(
    problem: RealTimeProblem, b: np.ndarray
) -> EnforcedFeasibility:
    """Check whether the Figure 1 problem has any feasible point."""
    b = np.asarray(b, dtype=float)
    if b.shape != (problem.n_nodes,):
        raise SpecError(
            f"b must have length {problem.n_nodes}, got shape {b.shape}"
        )
    bl = b.tolist()
    if any(bi <= 0 for bi in bl):
        raise SpecError("all b_i must be > 0")
    x_min = minimal_periods(problem.pipeline)
    xl = x_min.tolist()
    head_cap = problem.vector_width * problem.tau0
    if xl[0] > head_cap * (1 + 1e-12):
        return EnforcedFeasibility(
            False,
            x_min,
            diagnosis=(
                f"head node cannot keep up: minimal period {xl[0]:.6g} "
                f"exceeds v*tau0 = {head_cap:.6g} (arrivals too fast)"
            ),
        )
    budget_min = sum(map(operator.mul, bl, xl))
    if budget_min > problem.deadline * (1 + 1e-12):
        return EnforcedFeasibility(
            False,
            x_min,
            diagnosis=(
                f"deadline too tight: minimal budget usage {budget_min:.6g} "
                f"exceeds D = {problem.deadline:.6g}"
            ),
        )
    return EnforcedFeasibility(True, x_min)


def min_deadline_enforced(pipeline: PipelineSpec, b: np.ndarray) -> float:
    """Smallest deadline for which enforced waits can be feasible.

    Equals ``sum_i b_i x_min_i`` (the budget at the minimal periods); the
    head-rate cap is independent of ``D`` and checked separately.
    """
    b = np.asarray(b, dtype=float)
    return float(np.dot(b, minimal_periods(pipeline)))


def min_tau0_enforced(pipeline: PipelineSpec) -> float:
    """Fastest sustainable arrival (smallest tau0) for enforced waits.

    The head must consume ``v`` items per period: ``x_0 <= v * tau0`` with
    ``x_0 >= x_min_0`` gives ``tau0 >= x_min_0 / v``.
    """
    x_min = minimal_periods(pipeline)
    return float(x_min[0]) / pipeline.vector_width


def min_tau0_monolithic(pipeline: PipelineSpec) -> float:
    """Fastest sustainable arrival for the monolithic strategy.

    As ``M`` grows, ``Tbar(M)/M`` decreases toward the per-item cost
    ``sum_i G_i t_i / v``; stability ``Tbar(M) <= M tau0`` therefore
    requires ``tau0`` at least that limit (achieved only asymptotically;
    finite ``M`` and ceils need slightly more).
    """
    return pipeline.per_item_cost


def monolithic_feasible_blocks(
    problem: RealTimeProblem,
    b: int,
    s_scale: float,
    *,
    max_block: int | None = None,
) -> np.ndarray:
    """All feasible block sizes ``M`` for the Figure 2 problem.

    The deadline constraint ``b*M*tau0 + S*Tbar(M) <= D`` bounds
    ``M <= D / (b*tau0)``; every integer in ``[1, bound]`` is checked
    vectorized.  Returns the (possibly empty) sorted array of feasible M.
    """
    from repro.core.monolithic import MonolithicProblem

    prob = MonolithicProblem(problem, b=b, s_scale=s_scale)
    upper = int(np.floor(problem.deadline / (b * problem.tau0)))
    if max_block is not None:
        upper = min(upper, max_block)
    if upper < 1:
        return np.empty(0, dtype=np.int64)
    m = np.arange(1, upper + 1, dtype=np.int64)
    mask = prob.feasible(m)
    return m[mask]
