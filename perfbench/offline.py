"""``offline-blast``: the paper's offline loop on the Table 1 BLAST pipeline.

No threads and no wall clock inside the program: every phase runs in
simulated time, so the host seconds it takes are the planner's and the
simulators' own cost.

1. A (tau0, D) plan sweep through a fresh ``PlanCache``, replayed in
   shuffled order, so cold solves, warm starts and exact hits (cache
   writes beside cache reads) run side by side.
2. A seeded Section 6.2 ``calibrate_enforced_b`` campaign, which runs on
   the closed-form fast path.
3. Validation at planned points through every event loop: the chain
   simulator (telemetry on; and again with bounded queues, deadline-aware
   shedding, the watchdog and a service spike), the DAG simulator on a
   diamond, the adaptive-waits simulator, a control-environment episode
   and a multi-tenant co-run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from perfbench.common import gate, median, percentile, timed_median

#: The sweep grid (Table 1 units) and how often each point is requested.
#: With 32 requests per point about 3% of requests are solves, so the
#: p99 lies inside the warm-start solves, not at their noisiest extreme.
SWEEP_TAU0 = (16.0, 60.0)
SWEEP_DEADLINE = (8.0e4, 3.0e5)
SWEEP_SIDE = 12
SWEEP_REPLAYS = 32
#: The calibration campaign: the calibration experiment's grid.
CAL_TAU0 = (3.0, 5.0, 20.0, 80.0)
CAL_DEADLINE = (2.0e4, 3.0e4, 6.0e4, 1.5e5, 3.0e5)
CAL_TRIALS = 8
CAL_ITEMS = 8000
#: Planned validation points and the stream length simulated at each.
VALIDATION_POINTS = ((20.0, 1.5e5), (40.0, 2.0e5))
VALIDATION_ITEMS = 30000
SETUP_REPEATS = 15
#: Nominal host seconds of one pass on a 2-core host; a run makes
#: ``seconds // CYCLE_SECONDS`` passes, so its work is fixed by ``seconds``.
CYCLE_SECONDS = 6.0

_SCALARS = (
    "n_items", "makespan", "active_fraction", "missed_items", "miss_rate",
    "outputs", "mean_latency", "max_latency",
)
_ARRAYS = (
    "active_time_per_node", "queue_hwm_vectors", "firings", "empty_firings",
    "mean_occupancy",
)


def bit_identical(a, b) -> bool:
    """Two ``SimMetrics`` agree in every scalar and array field."""
    for f in _SCALARS:
        x, y = getattr(a, f), getattr(b, f)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in _ARRAYS
    )


def diamond_graph():
    """Diamond DAG with unit-gain fan-out and filtering branches."""
    from repro.dataflow.gains import BernoulliGain, DeterministicGain
    from repro.dataflow.graph import DataflowGraph
    from repro.dataflow.spec import NodeSpec

    g = DataflowGraph(8)
    g.add_node(NodeSpec("src", 4.0, DeterministicGain(1)))
    g.add_node(NodeSpec("left", 3.0, BernoulliGain(0.6)))
    g.add_node(NodeSpec("right", 5.0, BernoulliGain(0.4)))
    g.add_node(NodeSpec("tail", 3.0, DeterministicGain(1)))
    g.add_edge("src", "left", DeterministicGain(1))
    g.add_edge("src", "right", DeterministicGain(1))
    g.add_edge("left", "tail")
    g.add_edge("right", "tail")
    return g


class Setup:
    """Everything the load phases need, built before any is timed."""

    def __init__(self) -> None:
        from repro.apps.blast.pipeline import blast_pipeline, calibrated_b
        from repro.core.dag import DagRealTimeProblem, solve_enforced_waits_dag
        from repro.core.model import RealTimeProblem
        from repro.planning.cache import PlanCache
        from repro.planning import warmstart

        self.pipeline = blast_pipeline()
        self.b = calibrated_b()
        tau0s = np.geomspace(*SWEEP_TAU0, SWEEP_SIDE)
        deadlines = np.geomspace(*SWEEP_DEADLINE, SWEEP_SIDE)
        self.grid = [(float(t), float(d)) for t in tau0s for d in deadlines]
        cache = PlanCache()
        self.plans = []
        for tau0, deadline in VALIDATION_POINTS:
            outcome = warmstart.solve_plan(
                RealTimeProblem(self.pipeline, tau0, deadline), self.b,
                cache=cache,
            )
            gate(outcome.solution.feasible, f"validation point {tau0, deadline} infeasible")
            self.plans.append((tau0, deadline, outcome.solution))
        self.graph = diamond_graph()
        self.dag_tau0, self.dag_deadline = 20.0, 2000.0
        self.dag_solution = solve_enforced_waits_dag(
            DagRealTimeProblem(self.graph, self.dag_tau0, self.dag_deadline)
        )
        gate(self.dag_solution.feasible, "diamond plan infeasible")


def plan_sweep(setup: Setup, rng) -> list[float]:
    """Latency (ms) of every request of one shuffled sweep replay."""
    from repro.core.model import RealTimeProblem
    from repro.planning import warmstart
    from repro.planning.cache import PlanCache
    from repro.solvers.fallback import certify_linear
    from repro.core.enforced_waits import EnforcedWaitsProblem

    cache = PlanCache(capacity=len(setup.grid))
    order = np.repeat(np.arange(len(setup.grid)), SWEEP_REPLAYS)
    rng.shuffle(order)
    first: dict[int, object] = {}
    latency_ms = []
    for k in order:
        problem = RealTimeProblem(setup.pipeline, *setup.grid[k])
        t0 = time.perf_counter()
        outcome = warmstart.solve_plan(problem, setup.b, cache=cache)
        latency_ms.append((time.perf_counter() - t0) * 1e3)
        sol = outcome.solution
        if k not in first:
            first[k] = sol
            if sol.feasible:
                A, c, labels = EnforcedWaitsProblem(problem, setup.b).constraint_system()
                cert = certify_linear(A, c, sol.periods, labels=labels, tol=1e-9)
                gate(cert.satisfied, f"plan at {setup.grid[k]} fails its certificate")
        else:
            gate(outcome.source == "hit", f"repeat of {setup.grid[k]} missed the cache")
            cold = first[k]
            gate(
                sol.feasible == cold.feasible
                and np.array_equal(sol.periods, cold.periods)
                and sol.active_fraction == cold.active_fraction,
                f"cache hit at {setup.grid[k]} differs from its first solve",
            )
    return latency_ms


def calibrate(setup: Setup, seed: int) -> tuple[float, object]:
    from repro.core import calibration

    t0 = time.perf_counter()
    result = calibration.calibrate_enforced_b(
        setup.pipeline,
        np.asarray(CAL_TAU0),
        np.asarray(CAL_DEADLINE),
        n_trials=CAL_TRIALS,
        n_items=CAL_ITEMS,
        seed_base=seed,
    )
    return time.perf_counter() - t0, result


def validate(setup: Setup, seed: int) -> dict:
    """Event-path validation runs; gates bit-identity with the fast path.

    Returns simulated items, host seconds spent in event loops, and the
    simulated active fractions and misses.
    """
    from repro.arrivals.fixed import FixedRateArrivals
    from repro.arrivals.poisson import PoissonArrivals
    from repro.control.env import ControlAction, ControlEnvConfig, DriftSchedule, PipelineControlEnv
    from repro.resilience.faults import RuntimeFaultPlan, ServiceSpike
    from repro.resilience.watchdog import DeadlineWatchdog
    from repro.sim.adaptive import AdaptiveWaitsSimulator
    from repro.sim.dag import DagEnforcedWaitsSimulator
    from repro.sim.enforced import EnforcedWaitsSimulator
    from repro.simd.backend import use_backend
    from repro.tenancy.sim import MultiTenantSimulator, SimTenant

    items = 0
    event_s = 0.0
    afs = []
    missed = 0
    attempted = 0

    def event(fn):
        nonlocal event_s
        t0 = time.perf_counter()
        out = fn()
        event_s += time.perf_counter() - t0
        return out

    pipe = setup.pipeline
    n = VALIDATION_ITEMS
    for i, (tau0, deadline, sol) in enumerate(setup.plans):
        run_seed = seed * 1000 + i

        def chain(**kw):
            return EnforcedWaitsSimulator(
                pipe, sol.waits, PoissonArrivals(tau0), deadline, n,
                seed=run_seed, **kw,
            )

        fast_sim = chain()
        fast = fast_sim.run()
        gate(fast_sim.engine.events_processed == 0, "chain run left the fast path")
        slow = event(lambda: chain(telemetry=True).run())
        gate(bit_identical(fast, slow), f"chain event path differs from fast path at {tau0, deadline}")
        items += n
        afs.append(fast.active_fraction)
        missed += fast.missed_items
        attempted += n

        span = n * tau0
        # Bounded 25% above the unbounded run's deepest queue: ample at the
        # planned rate, overflowing while the spike doubles node 1's service.
        hwm_items = float(np.max(fast.queue_hwm_vectors)) * pipe.vector_width
        capacity = max(pipe.vector_width, int(math.ceil(1.25 * hwm_items)))
        degraded = event(lambda: chain(
            queue_capacity=capacity,
            shed_policy="deadline-aware",
            watchdog=DeadlineWatchdog(deadline),
            runtime_faults=RuntimeFaultPlan(
                service_spikes=(ServiceSpike(1, 0.3 * span, 0.45 * span, 2.0),)
            ),
        ).run())
        res = degraded.extra["resilience"]
        gate(
            degraded.missed_items >= res["dropped_items"],
            "degraded run scored shed items as anything but misses",
        )
        items += n
        missed += degraded.missed_items
        attempted += n

        adaptive = event(lambda: AdaptiveWaitsSimulator(
            pipe, sol.waits, PoissonArrivals(tau0), deadline, n, seed=run_seed,
        ).run())
        items += n
        missed += adaptive.missed_items
        attempted += n

    # DAG on the diamond: event path vs fast path.
    def diamond():
        return DagEnforcedWaitsSimulator(
            setup.graph, setup.dag_solution.waits_by_name,
            PoissonArrivals(setup.dag_tau0), setup.dag_deadline, n, seed=seed,
        )

    dag_fast = diamond().run()
    with use_backend("python"):
        dag_event = event(lambda: diamond().run())
    gate(bit_identical(dag_fast, dag_event), "DAG event path differs from fast path")
    items += n
    missed += dag_event.missed_items
    attempted += n

    # A stationary control episode at the first planned point.
    tau0, deadline, sol = setup.plans[0]
    config = ControlEnvConfig(
        service_times=tuple(float(t) for t in pipe.service_times),
        mean_gains=tuple(float(g) for g in pipe.mean_gains),
        vector_width=pipe.vector_width,
        tau0=tau0,
        deadline=deadline,
        n_items=n,
        segment_time=n * tau0 / 40.0,
        schedule=DriftSchedule.stationary(pipe.n_nodes),
    )
    env = PipelineControlEnv(config)
    env.reset(seed)

    def episode():
        done = False
        act = ControlAction(waits=sol.waits)
        while not done:
            _, _, done, _ = env.step(act)
            act = None

    event(episode)
    items += n

    # Two undersubscribed tenants: the co-run equals each solo run.
    tenants = [
        SimTenant(
            name=f"t{j}", pipeline=pipe, waits=sol.waits,
            arrivals=FixedRateArrivals(tau0), deadline=deadline,
            n_items=n // 2, qos="gold", seed=seed + j,
        )
        for j in range(2)
    ]
    demand = tenants[0].active_fraction()
    co = event(lambda: MultiTenantSimulator(
        tenants, capacity=2.0 * demand + 1.0, qos_queues=False
    ).run())
    for tenant in tenants:
        solo = EnforcedWaitsSimulator(
            pipe, tenant.waits, tenant.arrivals, deadline, tenant.n_items,
            seed=tenant.seed,
        ).run()
        gate(bit_identical(co.metrics(tenant.name), solo), f"co-run of {tenant.name} differs from its solo run")
        items += tenant.n_items
    gate(co.conserves(), "multi-tenant device ledger does not conserve")
    return {
        "items": items,
        "event_s": event_s,
        "active_fraction": float(np.mean(afs)),
        "missed": missed,
        "attempted": attempted,
    }


def cycle(setup: Setup, index: int, seed: int) -> dict:
    """One pass of the three phases.

    The sweep order and the campaign's seeds depend only on the pass
    ``index``, so every run plans and calibrates the same work and their
    host times compare across runs; ``seed`` drives the validation
    streams.
    """
    plan_ms = plan_sweep(setup, np.random.default_rng([index, 3]))
    cal_s, _ = calibrate(setup, index)
    return {"plan_ms": plan_ms, "calibrate_s": cal_s, **validate(setup, seed)}


def run(seed: int, seconds: float) -> dict:
    """Untraced run: ``seconds // CYCLE_SECONDS`` passes of the three phases."""
    setup_s, setup = timed_median(Setup, SETUP_REPEATS)
    n_cycles = max(1, int(seconds // CYCLE_SECONDS))
    cycles = [cycle(setup, k, seed * 100 + k) for k in range(n_cycles)]
    plan_ms = [ms for c in cycles for ms in c["plan_ms"]]
    des_items_s = sum(c["items"] for c in cycles) / sum(c["event_s"] for c in cycles)
    attempted = sum(c["attempted"] for c in cycles)
    p50, p99 = median(plan_ms), percentile(plan_ms, 0.99)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_items_s": des_items_s,
        "active_fraction": float(np.mean([c["active_fraction"] for c in cycles])),
        "_detail": {
            "plan_p50_ms": p50,
            "plan_p99_ms": p99,
            "calibrate_s": median([c["calibrate_s"] for c in cycles]),
            "des_items_s": des_items_s,
            "miss_rate": sum(c["missed"] for c in cycles) / attempted,
            "plan_requests": len(plan_ms),
            "cycles": len(cycles),
        },
        "_attempted": len(plan_ms) + len(cycles) + attempted,
        "_failed": 0,
    }


def traced(seed: int, seconds: float) -> dict:
    """One cycle untraced, then the same cycle traced.

    The simulated results of the two must agree bit for bit (tracing is
    passive); host seconds of the two give the tracing overhead.
    """
    from perfbench import layers
    from perfbench.trace import Tracer, installed

    setup = Setup()
    cpu0 = time.process_time()
    plain = cycle(setup, 0, seed)
    cpu1 = time.process_time()
    tracer = Tracer()
    with installed(tracer):
        Setup()
        traced_cycle = cycle(setup, 0, seed)
    cpu2 = time.process_time()
    simulated = ("items", "active_fraction", "missed", "attempted")
    gate(
        all(plain[k] == traced_cycle[k] for k in simulated),
        "tracing changed offline-blast's simulated results",
    )
    out = layers.from_tracer(tracer)
    out["trace.overhead_share"] = (cpu2 - cpu1) / (cpu1 - cpu0) - 1.0
    return {"layers": out, "tracer": tracer, "untraced": plain, "traced": traced_cycle}
