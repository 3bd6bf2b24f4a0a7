"""Warm-started enforced-waits solves through the plan cache.

:func:`solve_plan` is the cached planning entry point.  Resolution order
for a configuration ``(pipeline, tau0, D, b, method)``:

1. **Exact hit** — the cache holds this exact key: return the stored
   solution unchanged (bit-identical to the solve that produced it).
2. **Warm start** — the cache holds a solution of the *same shape*
   (identical ``t``/``g``/``v``/``b``/method, different ``tau0`` or
   ``D``): re-solve with the exact chain solver
   (:func:`warm_start_solve`).  The warm result is accepted only if the
   solver reports ``OPTIMAL`` *and* a fresh
   :class:`~repro.solvers.fallback.FeasibilityCertificate` passes on the
   full constraint system, evaluated as scalar row residuals
   (:meth:`EnforcedWaitsProblem.check_rows`); otherwise the attempt is
   rejected (counted in ``stats.warm_rejects``) and the cold path runs.
3. **Cold solve** — :meth:`EnforcedWaitsProblem.solve` with the
   requested method, exactly as the uncached code path.

The chain solver needs no starting point, so the cached neighbour is
not used as a seed: seeding its budget multiplier from the neighbour
was measured and cost more passes than the solver's own start.

Infeasible configurations short-circuit: the feasibility check runs
first (once per miss; the cold path reuses its verdict), the infeasible
verdict is cached, and no warm start is attempted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.dag import (
    DagEnforcedWaitsProblem,
    DagEnforcedWaitsSolution,
    DagRealTimeProblem,
)
from repro.core.enforced_waits import (
    EnforcedWaitsProblem,
    EnforcedWaitsSolution,
    optimistic_b,
)
from repro.core.model import RealTimeProblem
from repro.errors import SolverError
from repro.planning.cache import (
    PlanCache,
    dag_plan_key,
    dag_shape_key,
    plan_key,
    shape_key,
)
from repro.solvers.fallback import FeasibilityCertificate
from repro.solvers.kkt import waterfill_chain
from repro.solvers.result import SolverStatus

__all__ = [
    "PlanOutcome",
    "default_cache",
    "reset_default_cache",
    "solve_plan",
    "solve_plan_dag",
    "warm_start_solve",
]

_default_cache: PlanCache | None = None


def default_cache() -> PlanCache:
    """The process-wide shared plan cache (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = PlanCache(capacity=512)
    return _default_cache


def reset_default_cache() -> None:
    """Drop the shared cache (tests and long-lived services)."""
    global _default_cache
    _default_cache = None


@dataclass(frozen=True)
class PlanOutcome:
    """One resolved planning request.

    ``source`` is ``"hit"`` (exact cache hit), ``"warm"`` (near-miss
    warm-started solve), or ``"cold"`` (full solve).  ``certificate`` is
    set on warm solves only.
    """

    solution: EnforcedWaitsSolution
    key: str
    source: str
    seconds: float
    certificate: FeasibilityCertificate | None = None


def warm_start_solve(
    ewp: EnforcedWaitsProblem,
    seed_periods: np.ndarray,
) -> tuple[EnforcedWaitsSolution, FeasibilityCertificate] | None:
    """Exact chain solve for a near miss of ``seed_periods``; None on rejection.

    The solve is :func:`~repro.solvers.kkt.waterfill_chain`, which needs no
    starting point; ``seed_periods`` must still be a finite vector of the
    problem's length.  Acceptance rule (documented in docs/planning.md):
    the solver must reach ``SolverStatus.OPTIMAL`` and its periods must
    pass a fresh linear :class:`FeasibilityCertificate` at tolerance 1e-9
    on the *full* constraint system.  One scalar pass over its rows
    (:meth:`EnforcedWaitsProblem.check_rows`) yields both the certificate
    and the solution's binding labels.  Any numerical failure, non-optimal
    status, or certificate rejection returns None so the caller falls
    back to the cold solve.
    """
    seed = np.asarray(seed_periods, dtype=float)
    if seed.shape != ewp.t.shape or not all(map(math.isfinite, seed.tolist())):
        return None
    try:
        result = waterfill_chain(ewp.t, ewp.g, ewp.b, ewp.head_cap, ewp.deadline)
    except SolverError:
        return None
    if result.status is not SolverStatus.OPTIMAL:
        return None
    cert, binding = ewp.check_rows(result.x)
    if not cert.satisfied:
        return None
    result.extra["certificate"] = cert
    solution = ewp._solution_from_x(
        result.x, "warmstart(waterfill-chain)", result, binding
    )
    return solution, cert


def solve_plan(
    problem: RealTimeProblem,
    b: np.ndarray | None = None,
    *,
    method: str = "auto",
    cache: PlanCache | None = None,
    warm_start: bool = True,
) -> PlanOutcome:
    """Solve the Figure 1 problem through the plan cache.

    Drop-in replacement for
    :func:`repro.core.enforced_waits.solve_enforced_waits` that
    resolves via exact hit / warm start / cold solve (module
    docstring).  With ``cache=None`` the process-wide
    :func:`default_cache` is used.
    """
    if cache is None:
        cache = default_cache()
    if b is None:
        b = optimistic_b(problem.pipeline)
    key = plan_key(problem, b, method=method)

    t0 = time.perf_counter()
    cached = cache.get(key)
    if cached is not None:
        return PlanOutcome(cached, key, "hit", time.perf_counter() - t0)

    ewp = EnforcedWaitsProblem(problem, b)
    shape = shape_key(problem.pipeline, ewp.b, method=method)
    if warm_start and ewp.feasibility().feasible:
        seed = cache.nearest_by_shape(shape)
        if seed is not None:
            warm = warm_start_solve(ewp, seed.periods)
            if warm is not None:
                solution, cert = warm
                cache.stats.warm_hits += 1
                cache.put(key, solution, shape=shape)
                return PlanOutcome(
                    solution, key, "warm", time.perf_counter() - t0, cert
                )
            cache.stats.warm_rejects += 1

    solution = ewp.solve(method)
    cache.put(key, solution, shape=shape)
    return PlanOutcome(solution, key, "cold", time.perf_counter() - t0)


def _as_dag_solution(
    sol: EnforcedWaitsSolution, order: tuple[str, ...]
) -> DagEnforcedWaitsSolution:
    """Re-wrap a (possibly cached, possibly plain) solution with ``order``."""
    if isinstance(sol, DagEnforcedWaitsSolution) and sol.order == order:
        return sol
    return DagEnforcedWaitsSolution(
        feasible=sol.feasible,
        periods=sol.periods,
        waits=sol.waits,
        active_fraction=sol.active_fraction,
        node_utilizations=sol.node_utilizations,
        binding=sol.binding,
        method=sol.method,
        diagnosis=sol.diagnosis,
        solver_result=sol.solver_result,
        order=order,
    )


def solve_plan_dag(
    problem: DagRealTimeProblem,
    b: np.ndarray | None = None,
    *,
    method: str = "auto",
    cache: PlanCache | None = None,
    warm_start: bool = True,
) -> PlanOutcome:
    """Solve the DAG-generalized problem through the plan cache.

    Chain-shaped graphs route through :func:`solve_plan` on the
    equivalent chain problem — exact hits, warm starts, and the stored
    entries themselves are **shared** with the ``PipelineSpec`` API
    (the keys coincide by construction, see
    :func:`repro.planning.cache.dag_plan_key`).  Branching graphs are
    cached under their own graph-shape keys; warm starting is exact-hit
    only for now (the chain warm-start seeding recursion does not
    carry over to branching systems), so a near miss runs the cold DAG
    solve.
    """
    if cache is None:
        cache = default_cache()
    dewp = DagEnforcedWaitsProblem(problem, b)
    if dewp.is_chain:
        outcome = solve_plan(
            problem.as_chain_problem(),
            dewp.b,
            method=method,
            cache=cache,
            warm_start=warm_start,
        )
        return PlanOutcome(
            _as_dag_solution(outcome.solution, dewp.order),
            outcome.key,
            outcome.source,
            outcome.seconds,
            outcome.certificate,
        )

    key = dag_plan_key(problem, dewp.b, method=method)
    shape = dag_shape_key(problem.graph, dewp.b, method=method)
    t0 = time.perf_counter()
    cached = cache.get(key)
    if cached is not None:
        return PlanOutcome(
            _as_dag_solution(cached, dewp.order),
            key,
            "hit",
            time.perf_counter() - t0,
        )
    solution = dewp.solve(method)
    cache.put(key, solution, shape=shape)
    return PlanOutcome(solution, key, "cold", time.perf_counter() - t0)
