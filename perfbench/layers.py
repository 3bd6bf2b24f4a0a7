"""Per-layer metrics of a traced run, by name.

``NAMES`` is the full list (it matches ``per_layer`` in BENCHMARK.json);
a traced run reports every one of them, and a layer the workload never
calls reads 0.  Counts end in ``_n``; ``_us``/``_ms``/``.s``/``_s`` are
summed self times of that layer's spans.
"""

from __future__ import annotations

from perfbench.common import gate

NODES = ("n0", "n1", "n2")
RUNTIME_OPS = ("fire", "push", "pop_up_to", "observe", "record_exits")
REPORT_FIELDS = (
    "busy_share", "wait_share", "overhead_share", "oversleep_share",
    "firings", "empty_firings", "occupancy", "queue_hwm_vectors",
)
SOURCES = ("hit", "warm", "cold")
#: Largest share of a node thread's wall time the closure check leaves
#: unattributed before it fails the traced run.
CLOSURE_TOLERANCE = 0.10
DATAFLOW = (
    "dataflow.ItemQueue.push_many",
    "dataflow.ItemQueue.pop_up_to",
    "dataflow.GainDistribution.sample",
    "sim.LatencyLedger.record_exits",
)
EVENT_LOOPS = {
    "sim.enforced.s": "sim.enforced",
    "sim.dag.s": "sim.dag",
    "sim.adaptive.s": "sim.adaptive",
    "control.env.step_s": "control.env.step",
    "tenancy.sim.s": "tenancy.sim",
}

NAMES: tuple[str, ...] = (
    *(f"planning.solve_plan.{s}_n" for s in SOURCES),
    *(f"planning.solve_plan.{s}_ms" for s in SOURCES),
    "planning.cache.hit_ratio",
    "planning.warm.accept_ratio",
    "solvers.solve_n",
    "solvers.solve_ms",
    "core.calibrate.rounds",
    "core.calibrate.trials",
    "sim.fast.runs",
    "sim.fast.s",
    "sim.fast.items_s",
    *EVENT_LOOPS,
    "des.engine.events",
    "des.engine.events_s",
    *(f"{name}_{suffix}" for name in DATAFLOW for suffix in ("n", "us")),
    *(
        f"runtime.{node}.{op}_{suffix}"
        for node in NODES
        for op in RUNTIME_OPS
        for suffix in ("n", "us")
    ),
    "runtime.submit_n",
    "runtime.submit_us",
    *(f"runtime.{node}.{field}" for node in NODES for field in REPORT_FIELDS),
    *(f"runtime.{node}.unattributed_share" for node in NODES),
    "runtime.af_planned",
    "runtime.af_measured",
    "runtime.single_thread_items_s",
    "serving.handle_ms",
    "serving.admission.reject_ratio",
    "serving.errors",
    "serving.timeouts",
    "gen.lag_p99_ms",
    "gen.late_share",
    "trace.overhead_share",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_tracer(tracer) -> dict[str, float]:
    """Every per-layer metric the spans and counters give; the rest 0."""
    out = dict.fromkeys(NAMES, 0)
    selfs = tracer.self_times()
    c = tracer.counters

    def n_s(name):
        return selfs.get(name, (0, 0.0))

    for s in SOURCES:
        calls, secs = n_s(f"planning.solve_plan.{s}")
        out[f"planning.solve_plan.{s}_n"] = calls
        out[f"planning.solve_plan.{s}_ms"] = secs * 1e3
    requests = sum(out[f"planning.solve_plan.{s}_n"] for s in SOURCES)
    out["planning.cache.hit_ratio"] = _ratio(out["planning.solve_plan.hit_n"], requests)
    accepted = n_s("planning.warm_start.accepted")[0]
    rejected = n_s("planning.warm_start.rejected")[0]
    out["planning.warm.accept_ratio"] = _ratio(accepted, accepted + rejected)
    calls, secs = n_s("solvers.solve")
    out["solvers.solve_n"], out["solvers.solve_ms"] = calls, secs * 1e3
    out["core.calibrate.rounds"] = c.get("core.calibrate.rounds", 0)
    out["core.calibrate.trials"] = c.get("core.calibrate.trials", 0)
    fast_s = n_s("sim.fast")[1]
    out["sim.fast.runs"] = c.get("sim.fast.runs", 0)
    out["sim.fast.s"] = fast_s
    out["sim.fast.items_s"] = _ratio(c.get("sim.fast.items", 0), fast_s)
    for metric, span in EVENT_LOOPS.items():
        out[metric] = n_s(span)[1]
    events = c.get("des.engine.events", 0)
    out["des.engine.events"] = events
    out["des.engine.events_s"] = _ratio(events, tracer.durations("des.engine"))
    for name in DATAFLOW:
        calls, secs = n_s(name)
        out[f"{name}_n"], out[f"{name}_us"] = calls, secs * 1e6
    for node in NODES:
        for op in RUNTIME_OPS:
            calls, secs = n_s(f"runtime.{node}.{op}")
            out[f"runtime.{node}.{op}_n"] = calls
            out[f"runtime.{node}.{op}_us"] = secs * 1e6
    calls, secs = n_s("runtime.submit")
    out["runtime.submit_n"], out["runtime.submit_us"] = calls, secs * 1e6
    out["serving.handle_ms"] = n_s("serving.handle")[1] * 1e3
    return out


def from_report(report, vector_width: int) -> dict[str, float]:
    """Per-node time shares and queue facts read from a ``LiveRunReport``.

    ``overhead_share`` is ``1 - busy - wait``: node-thread time spent in
    neither the padded firing nor the enforced wait (pop, route, ledger,
    calibrator, loop).
    """
    tel = report.telemetry
    wall = tel.elapsed
    out = {}
    for node, t in zip(NODES, tel.nodes):
        p = f"runtime.{node}."
        busy, wait = t.busy_time / wall, t.wait_time / wall
        out[p + "busy_share"] = busy
        out[p + "wait_share"] = wait
        out[p + "overhead_share"] = 1.0 - busy - wait
        out[p + "oversleep_share"] = t.oversleep_time / wall
        out[p + "firings"] = t.firings
        out[p + "empty_firings"] = t.empty_firings
        out[p + "occupancy"] = t.mean_occupancy
        out[p + "queue_hwm_vectors"] = t.queue_hwm / vector_width
    out["runtime.af_planned"] = tel.planned_active_fraction
    out["runtime.af_measured"] = tel.measured_active_fraction
    return out


def closure(tracer, report) -> dict[str, float]:
    """Unattributed share of each node thread's wall time.

    A node thread's time is its padded firings (``busy``, which contains
    the kernel's ``fire``), its enforced waits (``wait``), and the spans
    it records outside both: queue pop, pushes to its successors, the
    calibrator and the ledger.  Whatever is left is loop and routing
    code no span covers (``np.repeat``, the shared lock, origin lookup).
    """
    tel = report.telemetry
    wall = tel.elapsed
    out = {}
    for node, t in zip(NODES, tel.nodes):
        spans = sum(
            tracer.durations(f"runtime.{node}.{op}")
            for op in RUNTIME_OPS
            if op != "fire"
        )
        share = (wall - t.busy_time - t.wait_time - spans) / wall
        gate(
            abs(share) <= CLOSURE_TOLERANCE,
            f"node {node} time does not close: {share:.1%} unattributed",
        )
        out[f"runtime.{node}.unattributed_share"] = share
    return out
