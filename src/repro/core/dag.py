"""The enforced-waits optimization generalized to dataflow DAGs.

The paper's Figure 1 problem assumes a linear chain.  For a validated
single-source DAG (:class:`~repro.dataflow.graph.DataflowGraph`) the
same decision variables — firing periods ``x_i = t_i + w_i`` in a fixed
topological order — carry over, with the chain rows generalized edge by
edge and the single deadline row generalized path by path::

    minimize    T(x) = (1/N) * sum_i t_i / x_i
    subject to  x_src <= v * tau0                       (head rate)
                g_e * x_d <= alpha_e * x_u   for e=(u,d)  (edge stability)
                sum_{i in P} b_i * x_i <= D  for each source->sink path P
                x_i >= t_i                              (waits nonnegative)

**Edge stability.**  Node ``d`` consumes the merged inflow of its
in-edges.  Charging each edge a fraction ``alpha_e`` of ``d``'s service
rate proportional to its share of the expected flow —
``alpha_e = g_e * G_u / G_d`` with ``G`` the total gains, so that
``sum_e alpha_e = 1`` — gives the per-edge sufficient condition
``g_e * v / x_u <= alpha_e * v / x_d``; summing over in-edges recovers
aggregate stability ``sum_e g_e v / x_u <= v / x_d``.  For an in-degree-1
edge ``alpha_e = 1`` identically and the row is exactly the paper's chain
row ``g_{i-1} x_i <= x_{i-1}`` — same coefficients, bit for bit.  Edges
with zero expected flow (``g_e * G_u = 0``) carry no stability row: no
items ever traverse them.

**Path deadlines.**  An item's end-to-end latency along a path ``P`` is
bounded by ``sum_{i in P} b_i x_i`` (each node holds a batch at most
``b_i`` periods); every source->sink path gets its own row, so a sink is
protected on its slowest branch.  For a chain there is exactly one path
containing every node — the paper's single deadline row.

**Chain reduction.**  A chain-shaped graph delegates wholesale to
:class:`~repro.core.enforced_waits.EnforcedWaitsProblem`, so solver
behavior (exact chain solver, pinning, fallback chain) and results are
bit-identical to the ``PipelineSpec`` formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.enforced_waits import (
    EnforcedWaitsProblem,
    EnforcedWaitsSolution,
)
from repro.core.model import RealTimeProblem
from repro.dataflow.graph import DataflowGraph
from repro.errors import SolverError, SpecError
from repro.solvers.interior_point import barrier_solve
from repro.solvers.result import SolverResult, SolverStatus
from repro.utils.validation import check_positive

__all__ = [
    "DagEdge",
    "DagEnforcedWaitsProblem",
    "DagEnforcedWaitsSolution",
    "DagRealTimeProblem",
    "dag_optimistic_b",
    "solve_enforced_waits_dag",
]

_TOL = 1e-9


@dataclass(frozen=True)
class DagRealTimeProblem:
    """A dataflow DAG under a fixed-rate stream with a latency deadline.

    The DAG analogue of :class:`~repro.core.model.RealTimeProblem`; the
    graph is validated (single source, acyclic, connected) on
    construction.
    """

    graph: DataflowGraph
    tau0: float
    deadline: float

    def __post_init__(self) -> None:
        if not isinstance(self.graph, DataflowGraph):
            raise SpecError(
                f"graph must be a DataflowGraph, got {type(self.graph).__name__}"
            )
        self.graph.validate()
        check_positive("tau0", self.tau0)
        check_positive("deadline", self.deadline)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def vector_width(self) -> int:
        return self.graph.vector_width

    def as_chain_problem(self) -> RealTimeProblem:
        """The equivalent chain problem; raises if the graph branches."""
        return RealTimeProblem(self.graph.as_chain(), self.tau0, self.deadline)


def dag_optimistic_b(graph: DataflowGraph) -> np.ndarray:
    """Optimistic multipliers ``b_i`` in topological order.

    ``b_i = max(1, ceil(g_i^eff))`` where ``g_i^eff`` is the largest
    mean gain on node ``i``'s out-edges (its own mean gain for sinks) —
    on a chain this is exactly the paper's ``b_i = max(1, ceil(g_i))``.
    """
    b = []
    for name in graph.topological_order():
        succs = graph.successors(name)
        if succs:
            g_eff = max(graph.edge_mean_gain(name, s) for s in succs)
        else:
            g_eff = graph.spec(name).mean_gain
        b.append(max(1.0, math.ceil(g_eff)))
    return np.asarray(b, dtype=float)


@dataclass(frozen=True)
class DagEdge:
    """One assembled stability edge: ``g * x[dst] <= coeff_u * x[src]``."""

    src: int
    dst: int
    gain: float
    coeff_u: float


@dataclass(frozen=True)
class DagEnforcedWaitsSolution(EnforcedWaitsSolution):
    """An :class:`EnforcedWaitsSolution` whose arrays follow ``order``."""

    order: tuple[str, ...] = ()

    @property
    def waits_by_name(self) -> dict[str, float]:
        if not self.feasible:
            return {}
        return {n: float(w) for n, w in zip(self.order, self.waits)}

    @property
    def periods_by_name(self) -> dict[str, float]:
        if not self.feasible:
            return {}
        return {n: float(x) for n, x in zip(self.order, self.periods)}


@dataclass(frozen=True)
class DagFeasibility:
    """Outcome of the DAG feasibility check (diagnosis names the culprit)."""

    feasible: bool
    x_min: np.ndarray
    diagnosis: str | None = None


class DagEnforcedWaitsProblem:
    """The generalized Figure 1 optimization over a dataflow DAG.

    Variables are indexed by the graph's deterministic topological
    order.  Chain-shaped graphs delegate to
    :class:`EnforcedWaitsProblem` (bit-identical results); branching
    graphs assemble the per-edge / per-path system described in the
    module docstring.
    """

    def __init__(
        self, problem: DagRealTimeProblem, b: np.ndarray | None = None
    ) -> None:
        self.problem = problem
        graph = problem.graph
        self.graph = graph
        self.order: tuple[str, ...] = tuple(graph.topological_order())
        self._pos = {n: i for i, n in enumerate(self.order)}
        self.n = graph.n_nodes
        self.t = np.asarray(
            [graph.spec(n).service_time for n in self.order], dtype=float
        )
        self.head_cap = graph.vector_width * problem.tau0
        self.deadline = problem.deadline

        self._chain: EnforcedWaitsProblem | None = None
        if graph.is_chain():
            self._chain = EnforcedWaitsProblem(problem.as_chain_problem(), b)
            self.b = self._chain.b
        else:
            if b is None:
                b = dag_optimistic_b(graph)
            b = np.asarray(b, dtype=float)
            if b.shape != (self.n,):
                raise SpecError(
                    f"b must have length {self.n}, got shape {b.shape}"
                )
            if (b <= 0).any():
                raise SpecError("all b_i must be > 0")
            self.b = b

        gains = graph.total_gains()
        self.total_gains = np.asarray(
            [gains[n] for n in self.order], dtype=float
        )
        self.edges: tuple[DagEdge, ...] = tuple(self._assemble_edges())
        self.paths: tuple[tuple[int, ...], ...] = tuple(
            tuple(self._pos[n] for n in p) for p in graph.source_sink_paths()
        )

    @property
    def is_chain(self) -> bool:
        return self._chain is not None

    def _assemble_edges(self) -> list[DagEdge]:
        edges: list[DagEdge] = []
        for u, d in self.graph.edges():
            ui, di = self._pos[u], self._pos[d]
            g_e = self.graph.edge_mean_gain(u, d)
            if len(self.graph.predecessors(d)) == 1:
                # In-degree 1: exact chain row, raw coefficients.
                edges.append(DagEdge(ui, di, g_e, 1.0))
                continue
            flow_u = self.total_gains[ui]
            flow_d = self.total_gains[di]
            if g_e * flow_u == 0.0:
                continue  # no expected flow on this edge; vacuous
            edges.append(DagEdge(ui, di, g_e, g_e * flow_u / flow_d))
        return edges

    # -- objective ---------------------------------------------------------

    def active_fraction(self, x: np.ndarray) -> float:
        """The objective ``(1/N) sum_i t_i / x_i``."""
        return float(np.mean(self.t / x))

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
        """Full linear system ``A x <= c`` with row labels."""
        n = self.n
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        labels: list[str] = []
        r = np.zeros(n)
        r[0] = 1.0
        rows.append(r)
        rhs.append(self.head_cap)
        labels.append("head_rate")
        for e in self.edges:
            r = np.zeros(n)
            r[e.dst] = e.gain
            r[e.src] = -e.coeff_u
            rows.append(r)
            rhs.append(0.0)
            labels.append(f"edge_{self.order[e.src]}->{self.order[e.dst]}")
        for path in self.paths:
            r = np.zeros(n)
            r[list(path)] = self.b[list(path)]
            rows.append(r)
            rhs.append(self.deadline)
            labels.append(f"deadline[{'->'.join(self.order[i] for i in path)}]")
        for i in range(n):
            r = np.zeros(n)
            r[i] = -1.0
            rows.append(r)
            rhs.append(-self.t[i])
            labels.append(f"wait_nonneg_{self.order[i]}")
        return np.vstack(rows), np.asarray(rhs), labels

    def binding_constraints(
        self, x: np.ndarray, *, rtol: float = 1e-6
    ) -> tuple[str, ...]:
        """Labels of constraints tight at ``x``."""
        A, c, labels = self.constraint_system()
        lhs = A @ x
        scale = np.maximum(np.abs(c), 1.0)
        tight = np.abs(lhs - c) <= rtol * scale
        return tuple(lab for lab, t in zip(labels, tight) if t)

    # -- feasibility --------------------------------------------------------

    def minimal_periods(self, *, inflate: float = 0.0) -> np.ndarray:
        """Componentwise-minimal periods satisfying bounds and edge rows.

        Reverse-topological recursion: each stability edge ``(u, d)``
        demands ``x_u >= (g_e / alpha_e) x_d``, so
        ``x_u = max(t_u, max_e (g_e / alpha_e) x_d) * (1 + inflate)``.
        For a chain this is exactly
        :func:`~repro.core.feasibility.minimal_periods`.
        """
        x = np.empty(self.n, dtype=float)
        in_edges: list[list[DagEdge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            in_edges[e.src].append(e)
        for i in range(self.n - 1, -1, -1):
            lo = self.t[i]
            for e in in_edges[i]:
                if e.coeff_u > 0:
                    lo = max(lo, (e.gain / e.coeff_u) * x[e.dst])
            x[i] = lo * (1.0 + inflate)
        return x

    def feasibility(self) -> DagFeasibility:
        """Is any wait assignment feasible?  Diagnosis names the culprit."""
        x_min = self.minimal_periods()
        if x_min[0] > self.head_cap * (1 + 1e-12):
            return DagFeasibility(
                False,
                x_min,
                diagnosis=(
                    f"head node cannot keep up: minimal period {x_min[0]:.6g} "
                    f"exceeds v*tau0 = {self.head_cap:.6g} (arrivals too fast)"
                ),
            )
        for path in self.paths:
            idx = list(path)
            budget = float(np.dot(self.b[idx], x_min[idx]))
            if budget > self.deadline * (1 + 1e-12):
                names = "->".join(self.order[i] for i in path)
                return DagFeasibility(
                    False,
                    x_min,
                    diagnosis=(
                        f"deadline too tight on path {names}: minimal budget "
                        f"usage {budget:.6g} exceeds D = {self.deadline:.6g}"
                    ),
                )
        return DagFeasibility(True, x_min)

    # -- solving -----------------------------------------------------------

    def _solution_from_x(
        self, x: np.ndarray, method: str, result: SolverResult | None
    ) -> DagEnforcedWaitsSolution:
        x = np.maximum(x, self.t)  # snap tiny bound violations
        return DagEnforcedWaitsSolution(
            feasible=True,
            periods=x,
            waits=x - self.t,
            active_fraction=self.active_fraction(x),
            node_utilizations=self.t / x,
            binding=self.binding_constraints(x),
            method=method,
            solver_result=result,
            order=self.order,
        )

    def _infeasible(self, diagnosis: str | None) -> DagEnforcedWaitsSolution:
        empty = np.empty(0)
        return DagEnforcedWaitsSolution(
            feasible=False,
            periods=empty,
            waits=empty,
            active_fraction=float("nan"),
            node_utilizations=empty,
            method="feasibility",
            diagnosis=diagnosis,
            order=self.order,
        )

    def _strict_point(self) -> np.ndarray | None:
        """A strictly feasible interior point, or None if there is none."""
        A, c, _ = self.constraint_system()
        for delta in (0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
            z = self.minimal_periods(inflate=delta)
            if (c - A @ z > 0).all():
                return z
        return None

    def _solve_slsqp(self) -> DagEnforcedWaitsSolution:
        from scipy.optimize import minimize

        A, c, _ = self.constraint_system()
        x_min = self.minimal_periods()
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
            raise SolverError(f"SLSQP failed on DAG problem: {res.message}")
        solver_result = SolverResult(
            x=res.x,
            objective=float(res.fun),
            status=SolverStatus.OPTIMAL,
            iterations=int(res.nit),
            message="slsqp",
        )
        return self._solution_from_x(res.x, "dag-slsqp", solver_result)

    def _solve_interior(self) -> DagEnforcedWaitsSolution:
        z0 = self._strict_point()
        if z0 is None:
            # Degenerate region (deadline or cap pinched to the minimum):
            # the minimal point is feasible and, with no interior to move
            # in, the resolved answer.
            return self._solution_from_x(
                self.minimal_periods(), "dag-interior(no-interior)", None
            )
        A, c, _ = self.constraint_system()
        result = barrier_solve(self._f, self._grad, self._hess, A, c, z0)
        if result.status not in (SolverStatus.OPTIMAL, SolverStatus.MAX_ITER):
            raise SolverError(
                f"interior-point solve failed on DAG problem: {result.message}"
            )
        return self._solution_from_x(result.x, "dag-interior", result)

    def solve(self, method: str = "auto") -> DagEnforcedWaitsSolution:
        """Solve the generalized problem.

        Chain-shaped graphs delegate to
        :meth:`EnforcedWaitsProblem.solve` with the same ``method``
        (bit-identical periods and waits).  Branching graphs support
        ``auto`` (interior point, SLSQP on numerical failure),
        ``interior``, and ``slsqp``; the chain-only ``waterfill`` and
        ``fallback`` methods raise :class:`SolverError`.
        """
        if self._chain is not None:
            sol = self._chain.solve(method)
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
                order=self.order,
            )

        feas = self.feasibility()
        if not feas.feasible:
            return self._infeasible(feas.diagnosis)

        if method in ("waterfill", "fallback"):
            raise SolverError(
                f"method {method!r} applies only to chain-shaped graphs; "
                "use 'auto', 'interior', or 'slsqp' for branching DAGs"
            )
        if method == "interior":
            return self._solve_interior()
        if method == "slsqp":
            return self._solve_slsqp()
        if method == "auto":
            try:
                return self._solve_interior()
            except (SolverError, np.linalg.LinAlgError):
                return self._solve_slsqp()
        raise SpecError(f"unknown method {method!r}")


def solve_enforced_waits_dag(
    problem: DagRealTimeProblem,
    b: np.ndarray | None = None,
    *,
    method: str = "auto",
) -> DagEnforcedWaitsSolution:
    """Convenience wrapper: build and solve the DAG problem."""
    return DagEnforcedWaitsProblem(problem, b).solve(method)
