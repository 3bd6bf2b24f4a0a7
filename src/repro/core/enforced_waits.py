"""The enforced-waits optimization (Figure 1 of the paper).

Decision variables are the waits ``w_i >= 0``; internally we optimize the
firing periods ``x_i = t_i + w_i``, in which the problem reads::

    minimize    T(x) = (1/N) * sum_i t_i / x_i
    subject to  x_0 <= v * tau0                      (head rate)
                g_{i-1} * x_i <= x_{i-1}, 1 <= i < N (chain stability)
                sum_i b_i * x_i <= D                 (deadline budget)
                x_i >= t_i                           (waits nonnegative)

The objective is separable convex on ``x > 0`` and all constraints are
linear, so this is a convex program; we solve it exactly with one of:

- ``auto`` (default) — :func:`repro.solvers.kkt.waterfill_chain`, an
  exact solver for the full chain program: with ``y_i = G_i x_i`` and
  ``G_i = prod_{j<i} g_j`` the chain rows say ``y`` is nonincreasing,
  pool-adjacent-violators solves the Lagrangian for a fixed budget
  multiplier, and the multiplier has a closed form per block structure.
  Labelled ``waterfill`` when no chain row is tight, ``waterfill-chain``
  when one is.
- ``waterfill`` — drop the chain rows, solve the box+budget relaxation in
  closed form (:func:`repro.solvers.kkt.waterfill_box_budget`); raises
  unless the relaxed optimum satisfies the chain rows.
- ``interior`` — the from-scratch log-barrier Newton method on the full
  constraint set, the reference for ``auto``.  Degenerate cases
  (deadline exactly at the minimum budget; head cap pinned at the
  minimal period) are resolved by variable pinning first, since barrier
  methods need a strictly feasible interior.
- ``slsqp`` — scipy's SLSQP as an independent cross-check.
- ``fallback`` — the resilient chain (:mod:`repro.solvers.fallback`):
  interior point, then projected gradient on the box+budget relaxation,
  then an exhaustive grid scan over the chain-tight family — retrying
  each rung with perturbed strictly feasible starts, and accepting a
  result only with a passing feasibility certificate.  Use this when a
  plan must come back even if the primary solver hits numerical
  trouble.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.core.feasibility import (
    EnforcedFeasibility,
    enforced_feasibility,
    minimal_periods,
)
from repro.core.model import RealTimeProblem
from repro.dataflow.spec import PipelineSpec
from repro.errors import SolverError, SpecError
from repro.solvers.fallback import (
    FallbackRung,
    FeasibilityCertificate,
    certify_linear,
    certify_violations,
    perturbation_scale,
    solve_with_fallback,
)
from repro.solvers.grid import best_feasible_index
from repro.solvers.interior_point import barrier_solve
from repro.solvers.kkt import waterfill_box_budget, waterfill_chain
from repro.solvers.projected_gradient import projected_gradient_min
from repro.solvers.result import SolverResult, SolverStatus

__all__ = [
    "optimistic_b",
    "EnforcedWaitsProblem",
    "EnforcedWaitsSolution",
    "solve_enforced_waits",
]

_TOL = 1e-9


def _mean(v: np.ndarray) -> float:
    """``float(np.mean(v))`` of a 1-D array, bit for bit, without its wrapper.

    ``np.mean`` is this pairwise sum divided by the count; a Python sum
    would round differently once ``v`` has eight or more entries.
    """
    return float(np.add.reduce(v)) / v.size


@functools.lru_cache(maxsize=64)
def _row_labels(n: int) -> tuple[str, ...]:
    """Labels of the ``2n + 1`` rows of :meth:`EnforcedWaitsProblem.constraint_system`."""
    return (
        "head_rate",
        *(f"chain_{i - 1}->{i}" for i in range(1, n)),
        "deadline",
        *(f"wait_nonneg_{i}" for i in range(n)),
    )


def optimistic_b(pipeline: PipelineSpec) -> np.ndarray:
    """The paper's optimistic starting multipliers ``b_i = ceil(g_i)``.

    Clamped below at 1 (a queue holds at least one vector's worth), which
    also covers the final node whose gain is irrelevant.
    """
    g = pipeline.mean_gains
    return np.maximum(1.0, np.ceil(g))


@dataclass(frozen=True)
class EnforcedWaitsSolution:
    """Solution of the Figure 1 problem.

    Attributes
    ----------
    feasible:
        Whether any wait assignment satisfies the constraints.
    periods:
        Optimal ``x_i = t_i + w_i`` (empty when infeasible).
    waits:
        Optimal ``w_i`` (empty when infeasible).
    active_fraction:
        Optimal objective ``(1/N) sum t_i/x_i``; NaN when infeasible.
    node_utilizations:
        Per-node ``t_i / x_i`` (each node's own active fraction).
    binding:
        Labels of constraints tight at the optimum.
    method:
        Which solver produced the result.
    diagnosis:
        Infeasibility explanation when not feasible.
    """

    feasible: bool
    periods: np.ndarray
    waits: np.ndarray
    active_fraction: float
    node_utilizations: np.ndarray
    binding: tuple[str, ...] = ()
    method: str = ""
    diagnosis: str | None = None
    solver_result: SolverResult | None = field(default=None, compare=False)


class EnforcedWaitsProblem:
    """The Figure 1 optimization for a concrete problem instance."""

    def __init__(self, problem: RealTimeProblem, b: np.ndarray | None = None) -> None:
        self.problem = problem
        pipeline = problem.pipeline
        if b is None:
            b = optimistic_b(pipeline)
        b = np.asarray(b, dtype=float)
        if b.shape != (pipeline.n_nodes,):
            raise SpecError(
                f"b must have length {pipeline.n_nodes}, got shape {b.shape}"
            )
        self._bl = b.tolist()
        if any(bi <= 0 for bi in self._bl):
            raise SpecError("all b_i must be > 0")
        self.b = b
        self.t = pipeline.service_times
        self.g = pipeline.mean_gains
        self.n = pipeline.n_nodes
        self.head_cap = pipeline.vector_width * problem.tau0
        self.deadline = problem.deadline
        self._constraints: tuple[np.ndarray, np.ndarray, list[str]] | None = None
        self._feasibility: EnforcedFeasibility | None = None

    def feasibility(self) -> EnforcedFeasibility:
        """:func:`~repro.core.feasibility.enforced_feasibility` of this instance, checked once."""
        if self._feasibility is None:
            self._feasibility = enforced_feasibility(self.problem, self.b)
        return self._feasibility

    # -- objective ---------------------------------------------------------

    def active_fraction(self, x: np.ndarray) -> float:
        """The objective ``(1/N) sum_i t_i / x_i``."""
        return _mean(self.t / x)

    def _f(self, x: np.ndarray) -> float:
        if (x <= 0).any():
            return float("inf")
        return float(np.sum(self.t / x)) / self.n

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return -self.t / (self.n * x**2)

    def _hess(self, x: np.ndarray) -> np.ndarray:
        return np.diag(2.0 * self.t / (self.n * x**3))

    # -- constraint system A x <= c ----------------------------------------

    def constraint_system(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Full linear system ``A x <= c`` with row labels.

        Built once per instance; the arrays are read-only because every
        caller shares them.
        """
        if self._constraints is None:
            n = self.n
            A = np.zeros((2 * n + 1, n))
            A[0, 0] = 1.0
            rows = np.arange(1, n)
            A[rows, rows] = self.g[: n - 1]
            A[rows, rows - 1] = -1.0
            A[n] = self.b
            A[n + 1 + np.arange(n), np.arange(n)] = -1.0
            c = np.concatenate(([self.head_cap], np.zeros(n - 1), [self.deadline], -self.t))
            A.flags.writeable = False
            c.flags.writeable = False
            self._constraints = (A, c, list(_row_labels(n)))
        return self._constraints

    def chain_satisfied(self, x: np.ndarray, *, rtol: float = 1e-9) -> bool:
        """Do the chain rows hold at ``x`` (within relative tolerance)?"""
        for i in range(1, self.n):
            if self.g[i - 1] * x[i] > x[i - 1] * (1 + rtol):
                return False
        return True

    def check_rows(
        self, x: np.ndarray, *, rtol: float = 1e-6
    ) -> tuple[FeasibilityCertificate, tuple[str, ...]]:
        """One pass over the rows of :meth:`constraint_system` at ``x``.

        Each row's residual ``(A x - c)_k`` is evaluated on Python floats
        from its closed form, without the dense matrix.  Scaled by
        ``max(|c_k|, 1)`` they give the :class:`FeasibilityCertificate`
        at 1e-9 (as :func:`~repro.solvers.fallback.certify_linear`
        would); rows with ``|(A x - c)_k| <= rtol * max(|c_k|, 1)`` are
        the binding labels.  A non-finite ``x`` fails the certificate and
        binds nothing.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise SpecError(f"x must have length {self.n}, got shape {x.shape}")
        xl = x.tolist()
        labels = _row_labels(self.n)
        if not all(map(math.isfinite, xl)):
            return certify_violations([math.inf], ["(non-finite iterate)"], tol=_TOL), ()
        tl, gl = self.t.tolist(), self.g.tolist()
        head_cap, deadline = self.head_cap, self.deadline
        # (A x - c)_k and max(|c_k|, 1), in constraint_system's row order.
        residual = [
            xl[0] - head_cap,
            *map(operator.sub, map(operator.mul, gl, xl[1:]), xl),
            sum(map(operator.mul, self._bl, xl)) - deadline,
            *map(operator.sub, tl, xl),
        ]
        scale = [
            max(abs(head_cap), 1.0),
            *[1.0] * (self.n - 1),
            max(abs(deadline), 1.0),
            *[max(ti, 1.0) for ti in tl],
        ]
        cert = certify_violations(
            list(map(operator.truediv, residual, scale)), labels, tol=_TOL
        )
        binding = tuple(
            [lab for lab, r, s in zip(labels, residual, scale) if abs(r) <= rtol * s]
        )
        return cert, binding

    def binding_constraints(self, x: np.ndarray, *, rtol: float = 1e-6) -> tuple[str, ...]:
        """Labels of constraints tight at ``x`` (see :meth:`check_rows`)."""
        return self.check_rows(x, rtol=rtol)[1]

    # -- solving -----------------------------------------------------------

    def _solution_from_x(
        self,
        x: np.ndarray,
        method: str,
        result: SolverResult | None,
        binding: tuple[str, ...] | None = None,
    ) -> EnforcedWaitsSolution:
        """The solution at ``x``; ``binding``, when given, is the binding set at ``x``."""
        x = np.maximum(x, self.t)  # snap tiny bound violations
        utilization = self.t / x
        return EnforcedWaitsSolution(
            feasible=True,
            periods=x,
            waits=x - self.t,
            active_fraction=_mean(utilization),
            node_utilizations=utilization,
            binding=self.binding_constraints(x) if binding is None else binding,
            method=method,
            solver_result=result,
        )

    def _infeasible(self, diagnosis: str | None) -> EnforcedWaitsSolution:
        empty = np.empty(0)
        return EnforcedWaitsSolution(
            feasible=False,
            periods=empty,
            waits=empty,
            active_fraction=float("nan"),
            node_utilizations=empty,
            method="feasibility",
            diagnosis=diagnosis,
        )

    def solve_waterfill_relaxation(self) -> SolverResult:
        """Exact solution of the problem *without* chain rows."""
        lo = self.t.astype(float)
        hi = np.full(self.n, np.inf)
        hi[0] = self.head_cap
        return waterfill_box_budget(self.t, self.b, lo, hi, self.deadline)

    def _solve_chain(self) -> EnforcedWaitsSolution:
        """Exact solve of the full program (:func:`waterfill_chain`).

        The caller has checked feasibility.  Labelled ``"waterfill"`` when
        no chain row binds (the box+budget relaxation is then optimal as
        well) and ``"waterfill-chain"`` when one does.
        """
        result = waterfill_chain(
            self.t, self.g, self.b, self.head_cap, self.deadline
        )
        if result.status is not SolverStatus.OPTIMAL:
            raise SolverError(f"chain waterfill failed: {result.message}")
        method = "waterfill-chain" if result.extra["chain_binds"] else "waterfill"
        return self._solution_from_x(result.x, method, result)

    def _solve_interior(self) -> EnforcedWaitsSolution:
        """Pin degenerate variables, then run the barrier method."""
        n = self.n
        x_min = minimal_periods(self.problem.pipeline)
        x_full = x_min.copy()

        # Pin a maximal prefix whose cap equals its minimal period.
        cap = self.head_cap
        idx0 = 0
        while idx0 < n and x_min[idx0] >= cap * (1 - _TOL):
            x_full[idx0] = min(x_min[idx0], cap)
            cap = (
                x_full[idx0] / self.g[idx0]
                if idx0 + 1 < n and self.g[idx0] > 0
                else np.inf
            )
            idx0 += 1
        free = list(range(idx0, n))
        budget_free = self.deadline - float(np.dot(self.b[:idx0], x_full[:idx0]))

        if not free:
            return self._solution_from_x(x_full, "interior(pinned-all)", None)

        tf = self.t[free]
        bf = self.b[free]
        gf = self.g[idx0:n]  # gains of free nodes; gf[k-1] couples free k-1,k
        x_min_free = x_min[free]

        if float(np.dot(bf, x_min_free)) >= budget_free * (1 - _TOL):
            # Deadline pinched to the minimum: unique solution.
            x_full[idx0:] = x_min_free
            return self._solution_from_x(x_full, "interior(degenerate)", None)

        # Build A z <= c for the free subproblem.
        k = len(free)
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        if np.isfinite(cap):
            r = np.zeros(k)
            r[0] = 1.0
            rows.append(r)
            rhs.append(cap)
        for j in range(1, k):
            r = np.zeros(k)
            r[j] = gf[j - 1]
            r[j - 1] = -1.0
            rows.append(r)
            rhs.append(0.0)
        rows.append(bf.copy())
        rhs.append(budget_free)
        for j in range(k):
            r = np.zeros(k)
            r[j] = -1.0
            rows.append(r)
            rhs.append(-tf[j])
        A = np.vstack(rows)
        c = np.asarray(rhs)

        z0 = self._strict_point(x_min_free, tf, gf, cap, bf, budget_free)
        if z0 is None:
            # No interior: fall back to the minimal point (feasible, maybe
            # suboptimal only in measure-zero degenerate geometries).
            x_full[idx0:] = x_min_free
            return self._solution_from_x(x_full, "interior(no-interior)", None)

        def f(z: np.ndarray) -> float:
            if (z <= 0).any():
                return float("inf")
            return float(np.sum(tf / z)) / self.n

        def grad(z: np.ndarray) -> np.ndarray:
            return -tf / (self.n * z**2)

        def hess(z: np.ndarray) -> np.ndarray:
            return np.diag(2.0 * tf / (self.n * z**3))

        result = barrier_solve(f, grad, hess, A, c, z0)
        if result.status not in (SolverStatus.OPTIMAL, SolverStatus.MAX_ITER):
            raise SolverError(
                f"interior-point solve failed: {result.message}"
            )
        x_full[idx0:] = result.x
        return self._solution_from_x(x_full, "interior", result)

    @staticmethod
    def _strict_point(
        x_min_free: np.ndarray,
        tf: np.ndarray,
        gf: np.ndarray,
        cap: float,
        bf: np.ndarray,
        budget_free: float,
    ) -> np.ndarray | None:
        """A strictly feasible point for the free subproblem, or None."""
        k = x_min_free.size
        for delta in (0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10):
            z = np.empty(k)
            z[k - 1] = tf[k - 1] * (1 + delta)
            for j in range(k - 1, 0, -1):
                z[j - 1] = max(tf[j - 1], gf[j - 1] * z[j]) * (1 + delta)
            if np.isfinite(cap) and z[0] >= cap * (1 - 1e-12):
                continue
            if float(np.dot(bf, z)) >= budget_free * (1 - 1e-12):
                continue
            ok = all(
                gf[j - 1] * z[j] < z[j - 1] * (1 - 1e-13) for j in range(1, k)
            )
            if ok and (z > tf).all():
                return z
        return None

    def solve(self, method: str = "auto") -> EnforcedWaitsSolution:
        """Solve the Figure 1 problem; see module docstring for methods."""
        feas = self.feasibility()
        if not feas.feasible:
            return self._infeasible(feas.diagnosis)

        if method == "auto":
            return self._solve_chain()

        if method == "waterfill":
            relaxed = self.solve_waterfill_relaxation()
            if relaxed.status is SolverStatus.OPTIMAL and self.chain_satisfied(
                relaxed.x
            ):
                return self._solution_from_x(relaxed.x, "waterfill", relaxed)
            raise SolverError(
                "waterfill relaxation violates chain constraints; "
                "use method='auto' or 'interior'"
            )

        if method == "interior":
            return self._solve_interior()

        if method == "slsqp":
            return self._solve_slsqp()

        if method == "fallback":
            return self._solve_fallback()

        raise SpecError(f"unknown method {method!r}")

    # -- resilient fallback chain ------------------------------------------

    def _fallback_start(self, A: np.ndarray, c: np.ndarray, scale: float) -> np.ndarray:
        """A strictly feasible start, pushed by ``scale`` on retries.

        Builds chain-tight backward-recursion points inflated by a range
        of deltas (as :meth:`_strict_point` does for the pinned
        subproblem) and returns the first that is strictly inside the
        *full* constraint set.  ``scale > 0`` (exponential-backoff
        retries) additionally stretches the coordinates by unequal
        factors so consecutive retries start geometrically farther from
        a pathological point.
        """
        n, t, g = self.n, self.t, self.g
        stretch = 1.0 + scale * np.linspace(1.0, 0.5, n)
        for delta in (0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
            z = np.empty(n)
            z[n - 1] = t[n - 1] * (1 + delta)
            for j in range(n - 1, 0, -1):
                z[j - 1] = max(t[j - 1], g[j - 1] * z[j]) * (1 + delta)
            if scale:
                z = z * stretch
            if (c - A @ z > 0).all():
                return z
        raise SolverError(
            "no strictly feasible interior start found "
            f"(perturbation scale {scale:g})"
        )

    def _chain_tight_family(self, deltas: np.ndarray) -> np.ndarray:
        """Chain-feasible periods ``x(delta)``, one row per delta.

        Each member is the backward recursion ``x_{N-1} = t_{N-1} (1 +
        d)``, ``x_{i-1} = max(t_{i-1}, g_{i-1} x_i) (1 + d)``; ``d = 0``
        reproduces :func:`~repro.core.feasibility.minimal_periods`, so
        the family always contains a feasible member once the problem
        itself is feasible.  Chain and wait-nonnegativity rows hold by
        construction; head cap and deadline budget are screened by the
        caller.
        """
        n, t, g = self.n, self.t, self.g
        infl = 1.0 + deltas
        x = np.empty((deltas.size, n))
        x[:, n - 1] = t[n - 1] * infl
        for j in range(n - 1, 0, -1):
            x[:, j - 1] = np.maximum(t[j - 1], g[j - 1] * x[:, j]) * infl
        return x

    def _solve_fallback(self) -> EnforcedWaitsSolution:
        """The resilient chain: interior -> projected gradient -> grid."""
        A, c, labels = self.constraint_system()

        def certify(x: np.ndarray):
            return certify_linear(A, c, x, labels=labels, tol=_TOL)

        def solve_interior_rung(attempt: int) -> SolverResult:
            z0 = self._fallback_start(A, c, perturbation_scale(attempt))
            return barrier_solve(self._f, self._grad, self._hess, A, c, z0)

        def solve_pg_rung(attempt: int) -> SolverResult:
            # Box + budget relaxation (chain rows dropped); the
            # certificate rejects the result if the chain binds.
            lo = self.t.astype(float)
            hi = np.full(self.n, np.inf)
            hi[0] = self.head_cap
            x0 = self._fallback_start(A, c, perturbation_scale(attempt))
            return projected_gradient_min(
                self._f, self._grad, self.b, lo, hi, self.deadline, x0
            )

        def solve_grid_rung(attempt: int) -> SolverResult:
            # Exhaustive scan of the 1-D chain-tight family.  Larger
            # deltas mean larger periods, hence a smaller objective, so
            # the optimum sits at the budget/cap boundary; retries
            # refine the grid.
            hi = 1e-6
            while hi < 1e12:
                x = self._chain_tight_family(np.asarray([hi * 2]))[0]
                if (
                    x[0] > self.head_cap * (1 + _TOL)
                    or float(np.dot(self.b, x)) > self.deadline * (1 + _TOL)
                ):
                    break
                hi *= 2
            n_pts = 1024 * (attempt + 1)
            deltas = np.linspace(0.0, hi * 2, n_pts)
            X = self._chain_tight_family(deltas)
            feasible = (X[:, 0] <= self.head_cap * (1 + _TOL)) & (
                X @ self.b <= self.deadline * (1 + _TOL)
            )
            objective = np.mean(self.t / X, axis=1)
            idx = best_feasible_index(objective, feasible)
            if idx is None:
                raise SolverError(
                    "grid rung found no feasible chain-tight member"
                )
            return SolverResult(
                x=X[idx],
                objective=float(objective[idx]),
                status=SolverStatus.OPTIMAL,
                iterations=n_pts,
                message=(
                    f"grid scan over {n_pts} chain-tight candidates "
                    f"(delta <= {hi * 2:.3g})"
                ),
            )

        result = solve_with_fallback(
            [
                FallbackRung("interior-point", solve_interior_rung),
                FallbackRung("projected-gradient", solve_pg_rung),
                FallbackRung("grid", solve_grid_rung),
            ],
            certify=certify,
            attempts=3,
        )
        rung = result.extra["fallback"]["rung"]
        return self._solution_from_x(result.x, f"fallback:{rung}", result)

    def _solve_slsqp(self) -> EnforcedWaitsSolution:
        """Cross-check solver using scipy's SLSQP."""
        from scipy.optimize import minimize

        A, c, _ = self.constraint_system()
        x_min = minimal_periods(self.problem.pipeline)
        # Start slightly inside the region.
        x0 = np.minimum(x_min * 1.001, np.maximum(x_min, 1.0) * 1e12)
        x0[0] = min(x0[0], self.head_cap)
        cons = [
            {
                "type": "ineq",
                "fun": lambda x, A=A, c=c: c - A @ x,
                "jac": lambda x, A=A: -A,
            }
        ]
        res = minimize(
            self._f,
            x0,
            jac=self._grad,
            method="SLSQP",
            constraints=cons,
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if not res.success:
            raise SolverError(f"SLSQP failed: {res.message}")
        solver_result = SolverResult(
            x=res.x,
            objective=float(res.fun),
            status=SolverStatus.OPTIMAL,
            iterations=int(res.nit),
            message="slsqp",
        )
        return self._solution_from_x(res.x, "slsqp", solver_result)


def solve_enforced_waits(
    problem: RealTimeProblem,
    b: np.ndarray | None = None,
    *,
    method: str = "auto",
) -> EnforcedWaitsSolution:
    """Convenience wrapper: build and solve the Figure 1 problem."""
    return EnforcedWaitsProblem(problem, b).solve(method)
