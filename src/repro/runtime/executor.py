"""The wall-clock pipeline executor.

:class:`PipelineExecutor` runs a planned pipeline for real: one thread
per node pops up-to-``v``-item batches off its bounded
:class:`~repro.runtime.queues.LiveQueue`, calls the node's
:class:`~repro.runtime.kernels.VectorKernel`, and then sleeps the
planned enforced wait ``w_i`` — the paper's enforced-waits strategy
executed on the wall clock instead of inside the discrete-event
simulator.

Service padding
---------------
The paper's model charges every vector firing the full service time
``t_i`` regardless of lane occupancy (a SIMD device runs all lanes in
lockstep).  On a CPU the raw Python kernel time varies with batch
content, so each firing is *padded* with a sleep up to the kernel's
calibrated ``nominal_service`` (times an injectable per-node
``service_scale``, the drift test hook emulating a device slowdown).
With ``charge_empty_firings=True`` (the default, matching
:class:`~repro.sim.enforced.EnforcedWaitsSimulator`) empty firings are
padded too, so a node's firing period is ``t_i + w_i`` under any load
and the measured per-node busy fraction realizes the planned ``t_i/x_i``.

Control loop
------------
A controller thread ticks every ``control_interval`` seconds: it
snapshots the :class:`~repro.runtime.calibration.OnlineCalibrator`
(fed by every non-empty firing), runs the
:class:`~repro.runtime.drift.DriftDetector`, and on a sustained drift
asks the :class:`~repro.runtime.replan.Replanner` for a fresh plan
through the shared plan cache.  A feasible solution is adopted by
atomically swapping the wait vector — in-flight items, queue contents,
and node threads are untouched; the next firing of each node simply
sleeps the new wait.

Deadline accounting reuses :class:`~repro.sim.metrics.LatencyLedger`
keyed on the int64 item ids minted by
:class:`~repro.runtime.queues.OriginStore`; a
:class:`~repro.resilience.watchdog.DeadlineWatchdog` (optional) observes
tail-exit slack exactly as in the simulator and scales the waits of
*every* node while degraded.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, SpecError
from repro.obs.telemetry import LiveNodeTelemetry, RuntimeTelemetry
from repro.runtime.calibration import OnlineCalibrator
from repro.runtime.drift import DriftConfig, DriftDetector
from repro.runtime.kernels import RuntimePlan, VectorKernel
from repro.runtime.queues import LiveQueue, OriginStore
from repro.runtime.replan import ReplanEvent, Replanner
from repro.sim.metrics import LatencyLedger

__all__ = ["PipelineExecutor", "LiveRunReport", "NodeFailure"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Longest uninterruptible block inside :meth:`PipelineExecutor._sleep`
#: (stop-flag recheck cadence) and the deliberate undershoot before its
#: final yield-spin to the deadline.
_SLEEP_SLICE = 0.05
_SLEEP_UNDERSHOOT = 0.002


class _NodeStats:
    """Per-node counters, written only by the owning node thread."""

    __slots__ = (
        "firings",
        "empty_firings",
        "items_consumed",
        "items_produced",
        "occupancy_sum",
        "busy_time",
        "wait_time",
        "oversleep_time",
    )

    def __init__(self) -> None:
        self.firings = 0
        self.empty_firings = 0
        self.items_consumed = 0
        self.items_produced = 0
        self.occupancy_sum = 0.0
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.oversleep_time = 0.0


@dataclass(frozen=True)
class NodeFailure:
    """One node-thread death, as observed by the supervisor.

    ``restarted`` says whether the supervisor respawned the node thread
    (``restart_failed_nodes`` with budget remaining); ``items_lost``
    counts the batch that died with the thread — those items are scored
    as deadline misses in the ledger so conservation holds and drains
    complete.
    """

    node: int
    name: str
    time: float
    error: str
    restarted: bool
    items_lost: int


@dataclass(frozen=True)
class LiveRunReport:
    """Final report of one live run."""

    telemetry: RuntimeTelemetry
    replan_events: tuple[ReplanEvent, ...] = ()
    node_failures: tuple[NodeFailure, ...] = ()
    policy_swaps: int = 0

    @property
    def total_oversleep(self) -> float:
        """Residual seconds slept past deadlines, summed over all nodes."""
        return self.telemetry.total_oversleep

    @property
    def outputs(self) -> int:
        return self.telemetry.outputs

    @property
    def missed_items(self) -> int:
        return self.telemetry.missed_items

    @property
    def miss_rate(self) -> float:
        return self.telemetry.miss_rate

    @property
    def measured_active_fraction(self) -> float:
        return self.telemetry.measured_active_fraction

    @property
    def planned_active_fraction(self) -> float:
        return self.telemetry.planned_active_fraction

    @property
    def replans(self) -> int:
        return len([e for e in self.replan_events if e.adopted])

    @property
    def node_restarts(self) -> int:
        """Node-thread deaths the supervisor recovered from."""
        return len([f for f in self.node_failures if f.restarted])

    def render(self) -> str:
        return self.telemetry.render()


class PipelineExecutor:
    """Run vectorized kernels as a live enforced-waits pipeline.

    Parameters
    ----------
    kernels:
        The node kernels, head to tail; each must have a positive
        ``nominal_service`` (run :func:`~repro.runtime.kernels.\
calibrate_service_times` or use :func:`~repro.runtime.kernels.\
plan_runtime`).
    waits:
        Planned enforced waits ``w_i`` in seconds (the solver's output).
    vector_width:
        SIMD width ``v`` — the maximum batch popped per firing.
    deadline:
        End-to-end latency bound ``D`` in seconds.
    tau0:
        Planned head inter-arrival time (used by the re-planner's
        problem; required when ``replanner`` is set).
    planned_active_fraction:
        The solver's predicted ``T(w)``, carried into telemetry.
    queue_capacity / shed_policy:
        Bound and overflow policy applied to every inter-node queue
        (same :class:`~repro.resilience.shedding.ShedPolicy` objects the
        simulators use).  Shed items are scored as deadline misses.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.DeadlineWatchdog`;
        fed the minimum slack of every tail exit batch, its
        ``wait_scale`` multiplies every enforced wait.
    drift / replanner:
        Online re-planning: ``drift`` configures the detector,
        ``replanner`` performs cache-warm solves.  Either may be None
        (no re-planning).
    charge_empty_firings:
        Pad and count firings that consumed zero items (default True,
        the simulator's convention — keeps the firing period ``t_i +
        w_i`` under any load).
    pad_service:
        Pad firings up to nominal service (default True).  Disable only
        for raw-throughput measurements.
    control_interval:
        Controller tick in seconds.
    restart_failed_nodes / max_node_restarts:
        Supervised recovery.  By default a node-thread death stops the
        whole pipeline and :meth:`join` raises.  With
        ``restart_failed_nodes=True`` the supervisor records a
        :class:`NodeFailure` (the dying batch's items are scored as
        deadline misses so conservation holds), respawns the node
        thread, and the run continues — up to ``max_node_restarts``
        total restarts, after which the next death stops the pipeline
        as before.  All failures, recovered or not, are reported in
        :attr:`LiveRunReport.node_failures`.
    successors:
        Optional DAG topology: ``successors[i]`` lists the kernel
        indices fed by node ``i`` (must all be ``> i``, i.e. kernels are
        given in topological order).  ``None`` (the default) is the
        linear chain ``[[1], [2], ..., []]``.  A node with several
        successors *broadcasts* its output batch to each of them
        (matching a DAG simulation whose fan-out edges carry
        deterministic unit gains — the branch nodes themselves do the
        filtering); a node with none is a sink, and every sink gets its
        own :class:`~repro.sim.metrics.LatencyLedger` in
        :attr:`sink_ledgers` besides the global one.
    device:
        Optional shared-device handle (e.g.
        :class:`~repro.tenancy.device.TenantDeviceHandle`) with
        ``acquire(stop) -> bool`` and ``release(duration)``.  When set,
        every node firing is bracketed by an acquire/release pair, so K
        executors sharing one arbiter contend for the device like K
        tenants on one SIMD machine and the arbiter's busy-time ledger
        accounts each tenant's device time.  Enforced waits are slept
        *without* holding the device — that idle time is exactly what
        co-residency reclaims.  ``None`` (default) runs device-free with
        unchanged behavior.
    on_replan:
        Optional callback invoked with the adopted
        :class:`~repro.runtime.replan.ReplanEvent` each time the control
        loop swaps in a re-planned wait vector.  The serving layer uses
        it to recompute the admission in-flight budget from the new
        plan's certificate.  Exceptions propagate to the control loop
        and stop the pipeline (they surface in :meth:`join`).
    policy:
        Optional learned control policy (see :mod:`repro.control`): any
        object with ``propose_live(snapshot, now) -> waits | None``.
        When set, the control loop consults the policy every tick with
        the calibrator snapshot and adopts any returned wait vector via
        :meth:`swap_waits`; the drift-detector/re-planner path is *not*
        consulted (the policy owns plan selection).  Adoptions are
        counted in :attr:`policy_swaps`.
    """

    def __init__(
        self,
        kernels: list[VectorKernel],
        waits: np.ndarray,
        *,
        vector_width: int,
        deadline: float,
        tau0: float | None = None,
        planned_active_fraction: float = math.nan,
        queue_capacity: int | None = None,
        shed_policy=None,
        watchdog=None,
        drift: DriftConfig | None = None,
        replanner: Replanner | None = None,
        charge_empty_firings: bool = True,
        pad_service: bool = True,
        calibration_alpha: float = 0.2,
        min_observations: int = 5,
        control_interval: float = 0.05,
        poll_interval: float = 0.001,
        planned_gains: np.ndarray | None = None,
        successors: list[list[int]] | None = None,
        restart_failed_nodes: bool = False,
        max_node_restarts: int = 3,
        device=None,
        on_replan=None,
        policy=None,
    ) -> None:
        if not kernels:
            raise SpecError("executor needs at least one kernel")
        if vector_width < 1:
            raise SpecError(f"vector_width must be >= 1, got {vector_width}")
        if deadline <= 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (len(kernels),):
            raise SpecError(
                f"waits must have length {len(kernels)}, got {waits.shape}"
            )
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if pad_service and any(k.nominal_service <= 0 for k in kernels):
            raise SpecError(
                "every kernel needs a positive nominal_service under "
                "service padding; run calibrate_service_times first"
            )
        self.kernels = list(kernels)
        self.n_nodes = len(kernels)
        self.vector_width = int(vector_width)
        self.deadline = float(deadline)
        self.tau0 = None if tau0 is None else float(tau0)
        self.charge_empty_firings = bool(charge_empty_firings)
        self.pad_service = bool(pad_service)
        self.control_interval = float(control_interval)
        self.poll_interval = float(poll_interval)
        self.watchdog = watchdog
        self.replanner = replanner
        self.drift_detector = (
            DriftDetector(drift) if drift is not None else None
        )
        if replanner is not None and self.drift_detector is None:
            self.drift_detector = DriftDetector(DriftConfig())

        n = len(kernels)
        if successors is None:
            successors = [[i + 1] for i in range(n - 1)] + [[]]
        if len(successors) != n:
            raise SpecError(
                f"successors must have one entry per kernel ({n}), "
                f"got {len(successors)}"
            )
        self._succs: list[tuple[int, ...]] = []
        for i, succ in enumerate(successors):
            succ = tuple(int(s) for s in succ)
            for s in succ:
                if not (i < s < n):
                    raise SpecError(
                        f"successor {s} of node {i} must lie in "
                        f"({i}, {n}) — kernels must be topologically "
                        "ordered"
                    )
            if len(set(succ)) != len(succ):
                raise SpecError(f"duplicate successor in node {i}: {succ}")
            self._succs.append(succ)
        self.sink_indices: tuple[int, ...] = tuple(
            i for i, succ in enumerate(self._succs) if not succ
        )
        fed = {s for succ in self._succs for s in succ}
        orphans = [i for i in range(1, n) if i not in fed]
        if orphans:
            raise SpecError(
                f"nodes {orphans} are fed by no one; the executor needs a "
                "single-source topology (connect them via successors)"
            )

        self._waits = waits.copy()
        self._planned_af = float(planned_active_fraction)
        self._service_scale = np.ones(self.n_nodes)
        self.queues = [
            LiveQueue(
                k.name, capacity=queue_capacity, shed_policy=shed_policy
            )
            for k in kernels
        ]
        self.origins = OriginStore()
        self.ledger = LatencyLedger(self.deadline, keep_samples=True)
        self.sink_ledgers: dict[str, LatencyLedger] = {
            self.kernels[i].name: LatencyLedger(
                self.deadline, keep_samples=True
            )
            for i in self.sink_indices
        }
        if planned_gains is None:
            planned_gains = np.ones(self.n_nodes)
        self.calibrator = OnlineCalibrator(
            [k.name for k in kernels],
            np.asarray([k.nominal_service for k in kernels], dtype=float),
            np.asarray(planned_gains, dtype=float),
            alpha=calibration_alpha,
            min_observations=min_observations,
        )
        self._stats = [_NodeStats() for _ in kernels]
        self._lock = threading.Lock()  # ledger + in_flight + ingest counts
        self._in_flight = 0
        self._items_ingested = 0
        self._ingest_done = threading.Event()
        self._stop = threading.Event()
        self._started = False
        self._finished = False
        self._t0 = math.nan
        self._elapsed = 0.0
        self._threads: list[threading.Thread] = []
        self._node_errors: list[BaseException] = []
        self._adopted_replans = 0
        if max_node_restarts < 0:
            raise SpecError(
                f"max_node_restarts must be >= 0, got {max_node_restarts}"
            )
        self.restart_failed_nodes = bool(restart_failed_nodes)
        self.max_node_restarts = int(max_node_restarts)
        self._node_failures: list[NodeFailure] = []
        self._node_restarts = 0
        self._supervision_lock = threading.Lock()
        self._device = device
        self._on_replan = on_replan
        self._policy = policy
        self._policy_swaps = 0

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_plan(
        cls,
        plan: RuntimePlan,
        *,
        cache=None,
        drift: DriftConfig | None = None,
        enable_replanning: bool = True,
        quantize_step: float = 0.05,
        min_replan_interval: float = 0.25,
        **kwargs,
    ) -> "PipelineExecutor":
        """Build an executor directly from a solved :class:`RuntimePlan`."""
        if not plan.feasible:
            raise SpecError(
                "cannot execute an infeasible plan: "
                f"{plan.outcome.solution.diagnosis}"
            )
        replanner = None
        if enable_replanning:
            replanner = Replanner(
                tau0=plan.problem.tau0,
                deadline=plan.problem.deadline,
                vector_width=plan.pipeline.vector_width,
                cache=cache,
                quantize_step=quantize_step,
                min_interval=min_replan_interval,
            )
        return cls(
            plan.workload.kernels,
            plan.waits,
            vector_width=plan.pipeline.vector_width,
            deadline=plan.problem.deadline,
            tau0=plan.problem.tau0,
            planned_active_fraction=plan.planned_active_fraction,
            planned_gains=plan.pipeline.mean_gains,
            drift=drift,
            replanner=replanner,
            **kwargs,
        )

    @classmethod
    def from_graph(
        cls,
        graph,
        kernels: dict[str, VectorKernel],
        waits: np.ndarray | dict,
        *,
        deadline: float,
        **kwargs,
    ) -> "PipelineExecutor":
        """Build a DAG executor from a validated
        :class:`~repro.dataflow.graph.DataflowGraph`.

        ``kernels`` maps node name -> :class:`VectorKernel`; ``waits``
        is an array in the graph's deterministic topological order or a
        ``{name: wait}`` mapping (e.g. from
        :meth:`repro.core.dag.DagEnforcedWaitsSolution.waits_by_name`).
        Vector width, topology, and planned per-node mean gains all
        come from the graph.
        """
        graph.validate()
        order = tuple(graph.topological_order())
        pos = {name: i for i, name in enumerate(order)}
        missing = [name for name in order if name not in kernels]
        if missing:
            raise SpecError(f"kernels mapping is missing nodes {missing}")
        if isinstance(waits, dict):
            absent = [name for name in order if name not in waits]
            if absent:
                raise SpecError(f"waits mapping is missing nodes {absent}")
            waits = np.asarray(
                [waits[name] for name in order], dtype=float
            )
        successors = [
            [pos[s] for s in graph.successors(name)] for name in order
        ]
        kwargs.setdefault(
            "planned_gains",
            np.asarray(
                [graph.spec(name).gain.mean for name in order], dtype=float
            ),
        )
        return cls(
            [kernels[name] for name in order],
            waits,
            vector_width=graph.vector_width,
            deadline=deadline,
            successors=successors,
            **kwargs,
        )

    # -- time --------------------------------------------------------------

    def _now(self) -> float:
        """Seconds since :meth:`start` (0.0 before)."""
        return time.perf_counter() - self._t0 if self._started else 0.0

    def _sleep(self, seconds: float) -> float:
        """Sleep to a deadline ``seconds`` from now, interruptibly.

        Anchored on the absolute deadline rather than accumulated
        slices: the historical loop slept ``min(remaining, 0.05)`` and
        every ``time.sleep`` call overshoots by the OS scheduler's
        wake-up granularity, so the final short slice carried a
        millisecond-scale overshoot straight onto *every* enforced wait
        — a systematic oversleep bias that lengthened effective periods
        and depressed measured activity.  Here the last slice
        deliberately undershoots by :data:`_SLEEP_UNDERSHOOT` and the
        residue is closed with ``sleep(0)`` yields, which wake within
        scheduler-quantum noise of the deadline.

        Returns the residual oversleep: seconds past the deadline at
        return (0.0 when interrupted early by stop, or when the
        deadline was met exactly).  Callers accumulate it into
        per-node stats so the bias, if the platform still imposes one,
        is *measured* rather than silent.
        """
        end = time.perf_counter() + seconds
        stop = self._stop
        while not stop.is_set():
            remaining = end - time.perf_counter()
            if remaining <= 0:
                break
            if remaining > _SLEEP_SLICE:
                # Interruptibility bound: never block longer than one
                # slice without rechecking stop.
                time.sleep(_SLEEP_SLICE)
            elif remaining > _SLEEP_UNDERSHOOT:
                time.sleep(remaining - _SLEEP_UNDERSHOOT)
            else:
                time.sleep(0)  # yield-spin the last ~2 ms to the deadline
        return max(0.0, time.perf_counter() - end)

    # -- ingest -------------------------------------------------------------

    def submit(self, payload: np.ndarray) -> np.ndarray:
        """Ingest a batch of head-of-pipeline payload rows; returns ids.

        Each row becomes one item originating *now*; overflow of the
        head queue follows its shed policy (dropped items are scored as
        deadline misses, like the simulator).
        """
        if not self._started or self._finished:
            raise SimulationError(
                "submit() requires a started, unfinished executor"
            )
        payload = np.asarray(payload)
        k = len(payload)
        if k == 0:
            return _EMPTY_IDS
        now = self._now()
        ids = self.origins.append(now, k)
        # Counted before the push so a node thread can never retire
        # items that are not yet in flight; a refused push (head
        # overflow without a shed policy) stores nothing, so its count
        # is taken back.
        with self._lock:
            self._items_ingested += k
            self._in_flight += k
        try:
            dropped = self.queues[0].push(ids, payload, now=now)
        except SimulationError:
            with self._lock:
                self._items_ingested -= k
                self._in_flight -= k
            raise
        if dropped is not None and dropped.size:
            with self._lock:
                self.ledger.record_drops(ids=dropped)
                self._in_flight -= int(dropped.size)
        return ids

    def finish_ingest(self) -> None:
        """Signal that no more items will be submitted."""
        self._ingest_done.set()

    # -- live control --------------------------------------------------------

    @property
    def waits(self) -> np.ndarray:
        """The enforced waits currently in force (a copy)."""
        return self._waits.copy()

    def swap_waits(self, waits: np.ndarray) -> None:
        """Atomically adopt a new wait vector without draining."""
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (self.n_nodes,):
            raise SpecError(
                f"waits must have length {self.n_nodes}, got {waits.shape}"
            )
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        self._waits = waits.copy()

    def inject_service_scale(self, node: int, factor: float) -> None:
        """Scale one node's padded service time (drift test hook)."""
        if factor <= 0:
            raise SpecError(f"service scale must be > 0, got {factor}")
        scale = self._service_scale.copy()
        scale[node] = factor
        self._service_scale = scale

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def stopped(self) -> bool:
        """True once the executor has stopped (or was asked to stop).

        The *public* form of the internal stop flag: ingest sources
        (:class:`~repro.runtime.ingest.ReplaySource`, the TCP ingest
        server) poll this instead of reaching into ``_stop``.
        """
        return self._stop.is_set()

    def should_stop(self) -> bool:
        """Callable alias of :attr:`stopped` for feeder loops."""
        return self._stop.is_set()

    def request_stop(self) -> None:
        """Ask every node/control thread to stop at its next check."""
        self._stop.set()

    @property
    def node_failures(self) -> tuple[NodeFailure, ...]:
        """Every node-thread death observed so far (see :class:`NodeFailure`)."""
        return tuple(self._node_failures)

    @property
    def node_restarts(self) -> int:
        """Node-thread deaths the supervisor has recovered from."""
        return self._node_restarts

    @property
    def replan_events(self) -> tuple[ReplanEvent, ...]:
        if self.replanner is None:
            return ()
        return tuple(self.replanner.events)

    @property
    def policy_swaps(self) -> int:
        """Wait-vector adoptions proposed by the control policy."""
        return self._policy_swaps

    # -- node and controller loops ------------------------------------------

    def _route_outputs(
        self, node: int, ids: np.ndarray, counts: np.ndarray, outputs
    ) -> None:
        produced = int(counts.sum())
        consumed = int(ids.size)
        out_ids = np.repeat(ids, counts) if produced else _EMPTY_IDS
        succs = self._succs[node]
        if succs:
            # Broadcast the batch to every successor; each copy is one
            # in-flight item.
            with self._lock:
                self._in_flight += produced * len(succs) - consumed
            if produced:
                now = self._now()
                for dst in succs:
                    dropped = self.queues[dst].push(
                        out_ids, outputs, now=now
                    )
                    if dropped is not None and dropped.size:
                        with self._lock:
                            self.ledger.record_drops(ids=dropped)
                            self._in_flight -= int(dropped.size)
            return
        # Sink: outputs exit the pipeline.
        now = self._now()
        with self._lock:
            if produced:
                origins = self.origins.lookup(out_ids)
                self.ledger.record_exits(origins, now, ids=out_ids)
                self.sink_ledgers[self.kernels[node].name].record_exits(
                    origins, now, ids=out_ids
                )
            self._in_flight -= consumed
            backlog = self._in_flight
        if self.watchdog is not None and produced:
            slack = float(origins.min()) + self.deadline - now
            self.watchdog.observe_exit(now, slack, backlog)

    def _node_loop(self, node: int) -> None:
        kernel = self.kernels[node]
        queue = self.queues[node]
        stats = self._stats[node]
        v = self.vector_width
        device = self._device
        held = False  # this thread currently holds a device slot
        ids = _EMPTY_IDS  # the batch currently held outside any queue
        try:
            while not self._stop.is_set():
                if device is not None:
                    if not device.acquire(self._stop):
                        return  # stop fired while queued for the device
                    held = True
                ids, payload = queue.pop_up_to(v)
                consumed = int(ids.size)
                if consumed == 0 and not self.charge_empty_firings:
                    if held:
                        device.release(0.0)
                        held = False
                    time.sleep(self.poll_interval)
                    stats.wait_time += self.poll_interval
                    continue
                fire_start = time.perf_counter()
                if consumed:
                    counts, outputs = kernel.fire(payload)
                    counts = np.asarray(counts, dtype=np.int64)
                    if counts.size != consumed:
                        raise SimulationError(
                            f"kernel {kernel.name!r} returned "
                            f"{counts.size} counts for {consumed} items"
                        )
                else:
                    counts, outputs = _EMPTY_IDS, None
                if self.pad_service:
                    target = (
                        kernel.nominal_service * self._service_scale[node]
                    )
                    remaining = target - (time.perf_counter() - fire_start)
                    if remaining > 0:
                        stats.oversleep_time += self._sleep(remaining)
                duration = time.perf_counter() - fire_start
                if held:
                    # The device was busy for the whole (padded) firing;
                    # the enforced wait below is slept without it.
                    device.release(duration)
                    held = False
                stats.firings += 1
                stats.busy_time += duration
                stats.occupancy_sum += consumed / v
                if consumed:
                    stats.items_consumed += consumed
                    produced = int(counts.sum())
                    stats.items_produced += produced
                    self.calibrator.observe(
                        node, duration, produced, consumed
                    )
                    self._route_outputs(node, ids, counts, outputs)
                    # Routed: in-flight accounting for this batch is
                    # settled, so a later failure must not re-drop it.
                    ids = _EMPTY_IDS
                else:
                    stats.empty_firings += 1
                scale = (
                    self.watchdog.wait_scale
                    if self.watchdog is not None
                    else 1.0
                )
                wait = self._waits[node] * scale
                if wait > 0:
                    wait_start = time.perf_counter()
                    stats.oversleep_time += self._sleep(wait)
                    stats.wait_time += time.perf_counter() - wait_start
        except BaseException as exc:  # supervised: report, maybe restart
            self._on_node_failure(node, exc, ids)
        finally:
            if held:
                device.release(0.0)

    def _on_node_failure(
        self, node: int, exc: BaseException, ids: np.ndarray
    ) -> None:
        """Handle one node-thread death: account, record, restart or stop.

        The batch the thread died holding (popped but not yet routed) is
        scored as deadline misses — the same provenance shed items get —
        so ``in_flight`` conservation holds and :meth:`join` can still
        drain.  Within the restart budget a fresh thread is spawned for
        the node and the pipeline keeps running; otherwise the failure
        stops the pipeline and surfaces in :meth:`join`.
        """
        lost = int(ids.size)
        if lost:
            with self._lock:
                self.ledger.record_drops(ids=ids)
                self._in_flight -= lost
        with self._supervision_lock:
            restart = (
                self.restart_failed_nodes
                and self._node_restarts < self.max_node_restarts
                and not self._stop.is_set()
            )
            if restart:
                self._node_restarts += 1
            self._node_failures.append(
                NodeFailure(
                    node=node,
                    name=self.kernels[node].name,
                    time=self._now(),
                    error=f"{type(exc).__name__}: {exc}",
                    restarted=restart,
                    items_lost=lost,
                )
            )
        if restart:
            thread = threading.Thread(
                target=self._node_loop,
                args=(node,),
                name=(
                    f"repro-node-{node}-{self.kernels[node].name}-r"
                    f"{self._node_restarts}"
                ),
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        else:
            self._node_errors.append(exc)
            self._stop.set()

    def _control_loop(self) -> None:
        if self.drift_detector is None and self._policy is None:
            return
        try:
            while not self._stop.is_set():
                self._sleep(self.control_interval)
                if self._stop.is_set():
                    return
                snapshot = self.calibrator.snapshot()
                if self._policy is not None:
                    waits = self._policy.propose_live(snapshot, self._now())
                    if waits is not None:
                        self.swap_waits(waits)
                        self._policy_swaps += 1
                    continue
                state = self.drift_detector.update(snapshot)
                if (
                    state.drifted
                    and self.replanner is not None
                    and self.replanner.ready(self._now())
                ):
                    event = self.replanner.replan(
                        snapshot,
                        self._now(),
                        service_mask=state.service_suspect,
                        gain_mask=state.gain_suspect,
                    )
                    if event.adopted:
                        self._adopt_replan(event)
        except BaseException as exc:
            self._node_errors.append(exc)
            self._stop.set()

    def _adopt_replan(self, event: ReplanEvent) -> None:
        """Adopt a feasible replan mid-flight and notify the serving layer.

        Swaps the waits in, rebases the calibrator and drift detector on
        the new plan, and — the piece the serving layer hooks — calls
        ``on_replan(event)`` so the admission budget is recomputed from
        the *adopted* plan's certificate rather than staying frozen at
        the server-start value (see
        :func:`repro.serving.admission.budget_from_event`).
        """
        self.swap_waits(event.waits)
        self._planned_af = event.active_fraction
        self.calibrator.rebase(event.services, event.gains)
        self.drift_detector.rebase()
        self._adopted_replans += 1
        if self._on_replan is not None:
            self._on_replan(event)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "PipelineExecutor":
        """Start the node threads (and the controller); returns self."""
        if self._started:
            raise SimulationError("executor already started")
        self._started = True
        self._t0 = time.perf_counter()
        for i in range(self.n_nodes):
            t = threading.Thread(
                target=self._node_loop,
                args=(i,),
                name=f"repro-node-{i}-{self.kernels[i].name}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        if self.drift_detector is not None or self._policy is not None:
            t = threading.Thread(
                target=self._control_loop,
                name="repro-runtime-control",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        return self

    def join(self, timeout: float | None = None) -> LiveRunReport:
        """Wait for ingest to finish and the pipeline to drain, then stop.

        Raises :class:`~repro.errors.SimulationError` on timeout or if a
        node thread failed.
        """
        if not self._started:
            raise SimulationError("executor was never started")
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while not self._stop.is_set():
            if self._ingest_done.is_set() and self._in_flight <= 0:
                break
            if deadline is not None and time.perf_counter() > deadline:
                self._stop.set()
                self._finalize()
                raise SimulationError(
                    f"executor did not drain within {timeout}s "
                    f"({self._in_flight} items in flight)"
                )
            time.sleep(self.poll_interval)
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        self._finalize()
        if self._node_errors:
            raise SimulationError(
                f"node thread failed: {self._node_errors[0]!r}"
            ) from self._node_errors[0]
        return self.report()

    def _finalize(self) -> None:
        if not self._finished:
            self._elapsed = self._now()
            self._finished = True
            if self.watchdog is not None:
                self.watchdog.finalize(self._elapsed)

    # -- observation ---------------------------------------------------------

    def snapshot(self) -> RuntimeTelemetry:
        """A point-in-time :class:`RuntimeTelemetry` (usable mid-run)."""
        elapsed = self._elapsed if self._finished else self._now()
        snap = self.calibrator.snapshot()
        nodes = []
        for i, kernel in enumerate(self.kernels):
            s = self._stats[i]
            q = self.queues[i]
            firings = s.firings
            nodes.append(
                LiveNodeTelemetry(
                    name=kernel.name,
                    firings=firings,
                    empty_firings=s.empty_firings,
                    items_consumed=s.items_consumed,
                    items_produced=s.items_produced,
                    mean_occupancy=(
                        s.occupancy_sum / firings if firings else math.nan
                    ),
                    busy_time=s.busy_time,
                    wait_time=s.wait_time,
                    queue_depth=q.depth,
                    queue_hwm=q.max_depth,
                    queue_pushed=q.total_pushed,
                    queue_popped=q.total_popped,
                    queue_shed=q.total_shed,
                    planned_service=snap.planned_services[i],
                    planned_wait=float(self._waits[i]),
                    ewma_service=snap.services[i],
                    ewma_gain=snap.gains[i],
                    oversleep_time=s.oversleep_time,
                )
            )
        with self._lock:
            outputs = self.ledger.outputs
            missed = self.ledger.missed_items
            lat = self.ledger.latency
            latency_mean = lat.mean if lat.n else math.nan
            latency_p99 = lat.quantile(0.99) if lat.n else math.nan
            latency_max = lat.max if lat.n else math.nan
            in_flight = self._in_flight
            ingested = self._items_ingested
        if self.watchdog is not None:
            degraded_time = self.watchdog.degraded_time(elapsed)
            intervals = self.watchdog.intervals
        else:
            degraded_time = 0.0
            intervals = ()
        events = self.replan_events
        snap_hits = sum(1 for e in events if e.snapped)
        return RuntimeTelemetry(
            strategy="live-enforced",
            nodes=tuple(nodes),
            elapsed=elapsed,
            items_ingested=ingested,
            outputs=outputs,
            in_flight=in_flight,
            missed_items=missed,
            deadline=self.deadline,
            latency_mean=latency_mean,
            latency_p99=latency_p99,
            latency_max=latency_max,
            planned_active_fraction=self._planned_af,
            replans=self._adopted_replans,
            degraded_time=degraded_time,
            degraded_intervals=intervals,
            node_failures=len(self._node_failures),
            node_restarts=self._node_restarts,
            replan_snap_hits=snap_hits,
            replan_snap_misses=len(events) - snap_hits,
            replan_max_snap_distance=max(
                (e.snap_distance for e in events), default=0.0
            ),
        )

    def report(self) -> LiveRunReport:
        """The final report (call after :meth:`join`)."""
        return LiveRunReport(
            telemetry=self.snapshot(),
            replan_events=self.replan_events,
            node_failures=self.node_failures,
            policy_swaps=self._policy_swaps,
        )
