"""``live-saturate``: the synthetic 3-node chain on the wall clock.

The chain's service floor is sub-millisecond, so the host's per-firing
cost (queue push/pop, the routing lock, ``np.repeat``, the calibrator,
sleep overshoot) sets the rate the executor can sustain.  One generator
thread submits items on a Poisson schedule, open loop: an item's latency
runs from the moment it was *due*, so a stalled generator or a stalled
executor both show.
"""

from __future__ import annotations

import time
from types import SimpleNamespace as RungResult

import numpy as np

from perfbench.common import (
    blocked_p99,
    gate,
    generator_metrics,
    median,
    output_latency_ms,
    timed_median,
)

APP = "synthetic"
VECTOR_WIDTH = 8
SERVICE_FLOOR = 0.0005  # seconds
WORKLOAD_SEED = 0  # kernel RNG and plan; the bench seed only drives inputs

#: Fixed rate ladder (items/s): a fine geometric grid, searched coarsely
#: every ``COARSE``-th rung and then finely (see ``saturate``).
LADDER = tuple(3000.0 * 1.05**k for k in range(30))
COARSE = 4
#: Fixed rate, below capacity, at which latency is reported.
REFERENCE_RATE = 3000.0
#: A rung's backlog "grows" when the in-flight count rises by more than
#: this many vectors per node over the rung's second half.
BACKLOG_VECTORS = 4
SETUP_REPEATS = 5


def setup():
    """Build the workload and plan it: DES b-calibration and solve."""
    from repro.runtime.kernels import build_workload, plan_runtime

    workload = build_workload(APP, seed=WORKLOAD_SEED)
    return plan_runtime(
        workload,
        vector_width=VECTOR_WIDTH,
        service_floor=SERVICE_FLOOR,
        seed=WORKLOAD_SEED,
    )


def poisson_schedule(rate: float, seconds: float, rng) -> np.ndarray:
    """Due times (seconds from the start) of a Poisson stream."""
    n = int(rate * seconds * 1.3) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    return due[due < seconds]


def accounting_closes(report, ingested: int) -> bool:
    """Every item is delivered, filtered, missed or shed; none in flight."""
    tel = report.telemetry
    nodes = tel.nodes
    if tel.in_flight != 0 or tel.items_ingested != ingested:
        return False
    if nodes[0].queue_pushed + nodes[0].queue_shed != ingested:
        return False
    for i, node in enumerate(nodes):
        if node.queue_depth != 0 or node.queue_popped != node.items_consumed:
            return False
        if node.queue_pushed != node.queue_popped + node.queue_shed:
            return False
        if i + 1 < len(nodes):
            nxt = nodes[i + 1]
            if node.items_produced != nxt.queue_pushed + nxt.queue_shed:
                return False
    return nodes[-1].items_produced == tel.outputs


def run_rate(plan, rate: float, seconds: float, rng, payload_rng) -> RungResult:
    """Drive a fresh executor at ``rate`` for ``seconds``, drain, measure."""
    from repro.runtime.executor import PipelineExecutor

    due = poisson_schedule(rate, seconds, rng)
    n = due.size
    executor = PipelineExecutor.from_plan(plan, enable_replanning=False)
    exits: list[tuple[np.ndarray, float]] = []
    record = executor.ledger.record_exits

    def record_exits(origins, now, ids=None):
        exits.append((ids, time.perf_counter()))
        return record(origins, now, ids=ids)

    executor.ledger.record_exits = record_exits
    sample = plan.workload.sample_payload
    ids = np.empty(n, dtype=np.int64)
    lag = np.empty(n)
    backlog = []  # (seconds since start, items in flight)
    executor.start()
    t0 = time.perf_counter()
    i = 0
    try:
        while i < n:
            now = time.perf_counter() - t0
            j = int(np.searchsorted(due, now, side="right"))
            if j <= i:
                time.sleep(max(0.0, due[i] - now))
                continue
            got = executor.submit(sample(j - i, payload_rng))
            sent = time.perf_counter() - t0
            ids[i:j] = got
            lag[i:j] = sent - due[i:j]
            backlog.append((sent, executor.in_flight))
            i = j
    finally:
        executor.finish_ingest()
        report = executor.join(timeout=120.0)
    # A fresh executor numbers items 0, 1, ... in submit order, so an
    # output's id indexes its item's due time.
    gate((ids == np.arange(n)).all(), "executor ids are not sequential")
    latency_ms = output_latency_ms(exits, due, t0)
    trace = np.asarray(backlog)
    half = trace[:, 0] >= seconds / 2
    growth = 0.0
    if half.sum() >= 3:
        slope = np.polyfit(trace[half, 0], trace[half, 1], 1)[0]
        growth = float(slope * seconds / 2)
    return RungResult(
        rate=rate,
        offered=n / seconds,
        items=n,
        latency_ms=latency_ms,
        lag=lag,
        growth=growth,
        report=report,
        closes=accounting_closes(report, n),
        deadline_ms=plan.problem.deadline * 1e3,
    )


def rung_passes(r: RungResult, n_nodes: int) -> bool:
    p99 = blocked_p99(r.latency_ms)
    return (
        r.closes
        and p99 <= r.deadline_ms
        and r.growth <= BACKLOG_VECTORS * VECTOR_WIDTH * n_nodes
    )


def saturate(plan, rng, payload_rng, *, rung_seconds: float):
    """Highest passing rung of the ladder, and every rung run.

    The coarse pass runs every ``COARSE``-th rung once and stops after two
    failures in a row; the fine pass walks up from the best coarse rung
    and stops at a rung that fails twice.  A host stall (another process
    taking a core for a while) can fail any one attempt at any rate, but a
    rate above capacity fails every attempt.
    """
    n_nodes = plan.workload.n_nodes
    rungs: list[RungResult] = []

    def attempt(k, tries):
        for _ in range(tries):
            r = run_rate(plan, LADDER[k], rung_seconds, rng, payload_rng)
            gate(r.closes, f"live accounting did not close at {r.rate:.0f} items/s")
            rungs.append(r)
            if rung_passes(r, n_nodes):
                return r
        return None

    best, last, failures = None, None, 0
    for k in range(0, len(LADDER), COARSE):
        r = attempt(k, 1)
        if r is None:
            failures += 1
            if failures == 2:
                break
            continue
        best, last, failures = r, k, 0
    gate(best is not None, f"no coarse ladder rung from {LADDER[0]:.0f} items/s passed")
    for k in range(last + 1, min(last + COARSE, len(LADDER))):
        r = attempt(k, 2)
        if r is None:
            break
        best = r
    return best, rungs


def single_thread_items_s(items: int, payload_seed: int, app: str = APP) -> float:
    """The chain fired back to back in one thread: no padding, no waits."""
    from repro.runtime.kernels import build_workload

    workload = build_workload(app, seed=WORKLOAD_SEED)
    payload = workload.sample_payload(items, np.random.default_rng(payload_seed))
    t0 = time.perf_counter()
    for start in range(0, items, VECTOR_WIDTH):
        batch = payload[start:start + VECTOR_WIDTH]
        for kernel in workload.kernels:
            if len(batch) == 0:
                break
            _, batch = kernel.fire(batch)
    return items / (time.perf_counter() - t0)


def run(seed: int, seconds: float) -> dict:
    """Untraced run: set-up, reference-rate latency, then the ladder."""
    setup_s, plan = timed_median(setup, SETUP_REPEATS)
    gate(plan.feasible, "live plan is infeasible")
    rng = np.random.default_rng([seed, 1])
    payload_rng = np.random.default_rng([seed, 2])
    ref_seconds = max(3.0, 0.15 * seconds)
    rung_seconds = max(2.0, 0.1 * seconds)
    ref = run_rate(plan, REFERENCE_RATE, ref_seconds, rng, payload_rng)
    gate(ref.closes, "live accounting did not close at the reference rate")
    best, rungs = saturate(plan, rng, payload_rng, rung_seconds=rung_seconds)
    tel = ref.report.telemetry
    attempted = ref.items + sum(r.items for r in rungs)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": median(ref.latency_ms),
        "latency_p99_ms": blocked_p99(ref.latency_ms),
        "throughput_items_s": best.offered,
        "active_fraction": tel.measured_active_fraction,
        "_detail": {
            "live_capacity_items_s": best.offered,
            "live_capacity_rung_items_s": best.rate,
            "miss_rate": tel.missed_items / ref.items,
            "deadline_ms": ref.deadline_ms,
            "rungs": [
                {
                    "rate": r.rate,
                    "offered": r.offered,
                    "p99_ms": blocked_p99(r.latency_ms),
                    "growth_items": r.growth,
                    "missed": r.report.telemetry.missed_items,
                }
                for r in rungs
            ],
            **generator_metrics(ref.lag),
        },
        "_attempted": attempted,
        "_failed": sum(r.report.telemetry.node_failures for r in [ref, *rungs]),
    }


def traced(seed: int, seconds: float) -> dict:
    """Set-up traced, then the reference rate untraced and traced.

    Report metrics come from the untraced run; spans and the closure
    check from the traced one (same schedule and payloads, same seed).
    """
    from perfbench import layers
    from perfbench.trace import Tracer, installed

    tracer = Tracer()
    with installed(tracer):
        plan = setup()
    ref_seconds = max(2.0, 0.25 * seconds)

    def reference(trace: bool):
        rng = np.random.default_rng([seed, 1])
        payload_rng = np.random.default_rng([seed, 2])
        cpu = time.process_time()
        if trace:
            with installed(tracer):
                r = run_rate(plan, REFERENCE_RATE, ref_seconds, rng, payload_rng)
        else:
            r = run_rate(plan, REFERENCE_RATE, ref_seconds, rng, payload_rng)
        gate(r.closes, "live accounting did not close at the reference rate")
        return r, time.process_time() - cpu

    plain, cpu_plain = reference(False)
    traced_run, cpu_traced = reference(True)
    out = layers.from_tracer(tracer)
    out.update(layers.from_report(plain.report, VECTOR_WIDTH))
    out.update(layers.closure(tracer, traced_run.report))
    out["runtime.single_thread_items_s"] = single_thread_items_s(20000, seed)
    out.update(generator_metrics(plain.lag))
    out["trace.overhead_share"] = cpu_traced / cpu_plain - 1.0
    return {"layers": out, "tracer": tracer}
