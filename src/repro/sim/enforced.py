"""Discrete-event simulator of the enforced-waits strategy.

Each node runs a fire/complete/wait cycle: at a firing start it consumes up
to ``v`` items from its input queue; the firing occupies the node for its
service time (under the chosen timing model); on completion each consumed
item's sampled gain emits outputs downstream (or out of the pipeline at the
tail); the node then waits exactly ``w_i`` before its next firing,
regardless of queue contents — the paper's *enforced wait* (Section 4).

Under the default :class:`~repro.simd.sharing.IdealizedSharing` timing the
inter-firing period is exactly ``t_i + w_i``, matching the optimizer's
model; the GPS timing models (ablation A1) let firing durations depend on
concurrent activity.

Routing
-------
Each node's completions are routed over its row of a **channel table**
``[(dst | None, gain, rng stream, sink ledger | None)]``: every consumed
item is replicated along each channel, the channel's gain sampled on its
own RNG stream, and ``dst=None`` exits the pipeline (scored on the run's
ledger and, when given, the channel's own sink ledger).  For a
:class:`~repro.dataflow.spec.PipelineSpec` the constructor builds the
table directly — node ``i`` feeds ``i+1`` on stream ``node{i}.gain`` and
the tail exits — so a chain is the DAG whose nodes each have one
out-edge; :class:`~repro.sim.dag.DagEnforcedWaitsSimulator` only builds a
branching table over the same event loop.

Event ordering at equal virtual times is: arrivals first, then firing
completions in the completing node's topological index (node ``i``'s
completion carries priority ``i``), then firing starts (priority ``N``)
— so an item arriving at ``t`` is visible to a node firing at ``t``,
outputs completing at ``t`` reach a downstream node that also fires at
``t``, and a fan-in queue receives same-time pushes in predecessor
order.  On a chain, same-time completions of different nodes touch
disjoint queues, so the per-node ranking changes no result.

Chunked arrivals
----------------
Arrivals are *not* scheduled as one heap event + closure per item.  The
sorted arrival-time array is kept aside with a cursor, and the head
node's firing handler — the only observer of the head queue — drains
every not-yet-enqueued arrival with timestamp ``<= now`` in one
``push_many`` before popping its input vector.  Because arrivals at
``t`` outrank a firing at ``t`` (priority ordering above), this is
observationally identical to per-item arrival events: every firing sees
exactly the same queue state, so the simulation is bit-identical to the
per-item reference implementation
(``ReferenceEnforcedSimulator`` in ``tests/sim_reference.py``) — only the
engine's ``events_processed`` count drops (by one event per item).
Telemetry and trace hooks replay the per-arrival observations with the
original arrival timestamps, so their statistics are unchanged; trace
*record order* may interleave differently across nodes (arrival records
are emitted at drain time), but every record carries its true timestamp.

Items are identified by integer ids (their index in the arrival stream),
which the queues carry end-to-end; origin timestamps are looked up by id
at the pipeline tail.  This keeps deadline accounting correct when
distinct items share an arrival timestamp (ties are allowed by the
arrival contract).

Degraded-mode runtime (opt-in)
------------------------------
Four keyword arguments enable the resilience layer
(:mod:`repro.resilience`); all default to disabled, and the disabled
path is bit-identical to the plain simulator (pinned by
``tests/test_sim_equivalence.py``):

- ``runtime_faults`` — a :class:`~repro.resilience.faults.RuntimeFaultPlan`
  injecting service-time spikes, node stalls, and arrival bursts beyond
  the planned rate, all deterministic per seed.
- ``queue_capacity`` + ``shed_policy`` — bound every inter-node queue
  and shed on overflow instead of raising; shed items are accounted as
  deadline misses in the :class:`~repro.sim.metrics.LatencyLedger` and
  as ``queue_shed`` in telemetry.
- ``watchdog`` — a :class:`~repro.resilience.watchdog.DeadlineWatchdog`
  that zeroes the enforced waits while slack erodes and restores them
  (with hysteresis) once the backlog drains; once every item has left,
  the planned waits apply again so the run can shut down.  Degraded
  intervals land in ``metrics.extra["resilience"]`` and telemetry.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.gains import GainDistribution, is_passthrough
from repro.dataflow.queues import ItemQueue
from repro.dataflow.spec import PipelineSpec
from repro.des.engine import Engine
from repro.des.events import Event
from repro.des.rng import RngRegistry
from repro.des.trace import TraceRecorder
from repro.errors import SimulationError, SpecError
from repro.obs.telemetry import TelemetryCollector
from repro.resilience.faults import RuntimeFaultPlan
from repro.resilience.shedding import make_shed_policy
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.fastpath import run_enforced_fast
from repro.sim.metrics import LatencyLedger, SimMetrics
from repro.simd.occupancy import OccupancyTracker
from repro.simd.sharing import IdealizedSharing, TimingModel, WorkConservingSharing

__all__ = ["EnforcedWaitsSimulator"]

# A completion's priority is its node's topological index and firing
# starts rank after every completion (see the module docstring); the GPS
# timing models drain all due completions from one event at the front.
_PRIO_GPS = 0

#: One routing channel: destination node (``None`` exits the pipeline),
#: gain distribution, RNG stream name, and the exit's own sink ledger.
Channel = tuple[int | None, GainDistribution, str, LatencyLedger | None]


class EnforcedWaitsSimulator:
    """Simulate a pipeline under per-node enforced waits.

    Parameters
    ----------
    pipeline:
        The application.
    waits:
        Enforced waits ``w_i >= 0`` (typically from
        :func:`repro.core.enforced_waits.solve_enforced_waits`).
    arrivals:
        The input stream process.
    deadline:
        Per-item latency bound ``D``.
    n_items:
        Stream length.
    seed:
        Root seed for all random streams.
    charge_empty_firings:
        The paper charges firings with an empty input vector as active
        time ("for ease of analysis"); set False to treat them as
        vacations (ablation A2).
    timing:
        ``"idealized"`` (default), ``"gps"`` (work-conserving sharing), or
        ``"gps-capped"`` (GPS with per-node share cap 1/N, which must
        reproduce idealized timing exactly — used as a consistency check).
    start_offsets:
        Optional per-node times of the *first* firing (default all zero).
        Phases do not affect the active fraction but do affect latency;
        see :func:`repro.core.offsets.aligned_offsets`.
    trace:
        Optional :class:`~repro.des.trace.TraceRecorder`.
    telemetry:
        When True, collect per-node and engine telemetry
        (:class:`~repro.obs.telemetry.RunTelemetry`) and attach it as
        ``metrics.extra["telemetry"]``.  Collection is passive: it never
        touches the RNG or the event queue, so results are bit-identical
        with or without it.
    runtime_faults:
        Optional :class:`~repro.resilience.faults.RuntimeFaultPlan` of
        in-simulation faults (see the module docstring).
    queue_capacity:
        Optional bound on every inter-node queue (in items).  Without a
        ``shed_policy`` an overflow raises
        :class:`~repro.errors.SimulationError` (fail-fast instability
        detection); with one, overflow sheds.
    shed_policy:
        ``None`` (default), ``"drop-newest"``, ``"drop-oldest"``, or
        ``"deadline-aware"``; requires ``queue_capacity``.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.DeadlineWatchdog`
        enabling graceful degradation of the enforced waits.
    engine:
        Optional shared :class:`~repro.des.engine.Engine`.  When given,
        this simulator co-schedules on the caller's virtual timeline
        (multi-tenant mode, :mod:`repro.tenancy.sim`): the caller arms
        it with :meth:`prepare`, runs the engine itself, and collects
        metrics with :meth:`finalize`.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        waits: np.ndarray,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        charge_empty_firings: bool = True,
        timing: str = "idealized",
        start_offsets: np.ndarray | None = None,
        keep_latency_samples: bool = False,
        trace: TraceRecorder | None = None,
        telemetry: bool = False,
        max_events: int = 20_000_000,
        runtime_faults: RuntimeFaultPlan | None = None,
        queue_capacity: int | None = None,
        shed_policy: str | None = None,
        watchdog: DeadlineWatchdog | None = None,
        engine: Engine | None = None,
    ) -> None:
        n = pipeline.n_nodes
        waits, start_offsets = self._check_args(
            n, waits, deadline, n_items, start_offsets
        )
        self.pipeline = pipeline
        # Minimum downstream service from node i (inclusive) to the tail:
        # the deadline-aware shed policy's traversal estimate.
        service = pipeline.service_times
        self._downstream_service = np.asarray(
            [float(service[i:].sum()) for i in range(n)]
        )
        channels = [
            [(i + 1 if i + 1 < n else None, node.gain, f"node{i}.gain", None)]
            for i, node in enumerate(pipeline.nodes)
        ]
        self._init_loop(
            [node.name for node in pipeline.nodes],
            [float(node.service_time) for node in pipeline.nodes],
            pipeline.vector_width,
            channels,
            waits,
            arrivals,
            deadline,
            n_items,
            seed=seed,
            charge_empty_firings=charge_empty_firings,
            timing=timing,
            start_offsets=start_offsets,
            keep_latency_samples=keep_latency_samples,
            trace=trace,
            telemetry=telemetry,
            max_events=max_events,
            runtime_faults=runtime_faults,
            queue_capacity=queue_capacity,
            shed_policy=shed_policy,
            watchdog=watchdog,
            engine=engine,
        )

    @staticmethod
    def _check_args(
        n: int,
        waits: np.ndarray,
        deadline: float,
        n_items: int,
        start_offsets: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate the run arguments; returns float ``(waits, offsets)``."""
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (n,):
            raise SpecError(f"waits must have length {n}, got {waits.shape}")
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if n_items < 1:
            raise SpecError(f"n_items must be >= 1, got {n_items}")
        if deadline <= 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        if start_offsets is None:
            return waits, np.zeros(n)
        start_offsets = np.asarray(start_offsets, dtype=float)
        if start_offsets.shape != (n,):
            raise SpecError(f"start_offsets must have length {n}")
        if (start_offsets < 0).any():
            raise SpecError("start_offsets must be >= 0")
        return waits, start_offsets

    def _init_loop(
        self,
        names: list[str],
        service_times: list[float],
        vector_width: int,
        channels: list[list[Channel]],
        waits: np.ndarray,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int,
        charge_empty_firings: bool,
        start_offsets: np.ndarray,
        keep_latency_samples: bool,
        max_events: int,
        timing: str = "idealized",
        trace: TraceRecorder | None = None,
        telemetry: bool = False,
        runtime_faults: RuntimeFaultPlan | None = None,
        queue_capacity: int | None = None,
        shed_policy: str | None = None,
        watchdog: DeadlineWatchdog | None = None,
        engine: Engine | None = None,
    ) -> None:
        """Arm the event loop over a topologically ordered channel table
        (node 0 is the source; see the module docstring); ``waits`` and
        ``start_offsets`` come from :meth:`_check_args`."""
        n = len(names)
        self.start_offsets = start_offsets

        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.charge_empty = bool(charge_empty_firings)
        self.trace = trace
        self.max_events = max_events

        if shed_policy is not None and queue_capacity is None:
            raise SpecError("shed_policy requires queue_capacity")
        self._faults = (
            None
            if runtime_faults is None or runtime_faults.empty
            else runtime_faults
        )
        self._watchdog = watchdog

        self.rng = RngRegistry(seed)
        # A caller-supplied engine co-schedules this simulator with others
        # on one virtual timeline (see repro.tenancy.sim); the owner of a
        # shared engine drives it via prepare()/finalize() instead of run().
        self._owns_engine = engine is None
        self.engine = Engine() if engine is None else engine
        self.queues = [
            ItemQueue(
                f"q{i}",
                dtype=np.int64,
                capacity=queue_capacity,
                on_overflow=(
                    "raise"
                    if shed_policy is None
                    else make_shed_policy(
                        shed_policy, slack_of=self._make_slack_fn(i)
                    )
                ),
            )
            for i in range(n)
        ]
        self._shed_counts = np.zeros(n, dtype=np.int64)
        self.trackers = [OccupancyTracker(name, vector_width) for name in names]
        self.ledger = LatencyLedger(deadline, keep_samples=keep_latency_samples)
        self.collector = (
            TelemetryCollector(names, vector_width) if telemetry else None
        )

        if timing == "idealized":
            self._timing: TimingModel = IdealizedSharing()
        elif timing == "gps":
            self._timing = WorkConservingSharing(n, capped=False)
        elif timing == "gps-capped":
            self._timing = WorkConservingSharing(n, capped=True)
        else:
            raise SpecError(
                f"timing must be 'idealized', 'gps', or 'gps-capped', "
                f"got {timing!r}"
            )
        self._timing_name = timing
        self._gps_event: Event | None = None
        self._inflight_firings: dict = {}

        self._times: np.ndarray | None = None  # arrival times, set by run()
        self._cursor = 0  # first not-yet-enqueued arrival index
        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._active_time = np.zeros(n)
        self._ran = False

        # Hot-path per-node state, hoisted out of _fire/_complete: plain
        # Python floats (numpy scalar indexing per event is measurably
        # slower), pre-seeded RNG streams (stream identity depends only
        # on (seed, name), so creation order is irrelevant), and reusable
        # firing closures.  The fast path replays ``_channels`` itself;
        # the event loop reads ``_routes``, whose rng is None on a
        # pass-through channel (its ids are forwarded unsampled).
        self._names = names
        self._channels = channels
        self._routes = [
            [
                (
                    dst,
                    gain,
                    None if is_passthrough(gain) else self.rng.stream(stream),
                    sink,
                )
                for dst, gain, stream, sink in chans
            ]
            for chans in channels
        ]
        self._service_f = service_times
        self._waits_f = [float(w) for w in waits]
        self._fire_fns = [partial(self._fire, i) for i in range(n)]
        self._v = int(vector_width)
        self._n_nodes = n
        self._prio_fire = n

    def _make_slack_fn(self, i: int):
        """Remaining-slack estimator for node ``i``'s queue (deadline-aware).

        Slack of an item is the time left until its deadline minus the
        minimum service still ahead of it; ``self._times`` is bound
        lazily because arrivals are generated in :meth:`run`.
        """

        def slack_of(ids: np.ndarray, now: float) -> np.ndarray:
            return (
                self._times[ids]
                + self.deadline
                - now
                - self._downstream_service[i]
            )

        return slack_of

    def _on_shed(self, i: int, dropped: np.ndarray, now: float) -> None:
        """Account tokens shed from node ``i``'s queue as deadline misses."""
        k = int(dropped.size)
        self._in_flight -= k
        self._shed_counts[i] += k
        self.ledger.record_drops(ids=dropped)
        if self.collector is not None:
            self.collector.on_shed(i, now, k, len(self.queues[i]))
        if self.trace is not None:
            self.trace.record(now, "shed", self._names[i], dropped=k)
        self._maybe_shutdown()

    def _wait_after(self, i: int) -> float:
        """Enforced wait for node ``i``'s next firing (watchdog-scaled).

        The watchdog zeroes waits only while items remain: once the
        stream has drained no exit can restore them, and under GPS
        timing back-to-back empty firings would keep a firing active
        forever, so the run could never shut down.
        """
        if (
            self._watchdog is not None
            and self._watchdog.degraded
            and not (self._arrivals_done and self._in_flight == 0)
        ):
            return 0.0
        return self._waits_f[i]

    # -- event handlers ------------------------------------------------------

    def _drain_arrivals(self, now: float) -> None:
        """Enqueue every arrival with timestamp <= ``now`` (chunked).

        Called from the head node's firing handler before it pops, i.e.
        at the first point the arrivals become observable.
        """
        if self._cursor < self.n_items:
            self._deliver(int(np.searchsorted(self._times, now, side="right")))

    def _deliver(self, j: int) -> None:
        """Enqueue arrivals ``cursor .. j-1`` at node 0 in one chunk.

        Telemetry and trace observations are replayed per item with the
        original arrival timestamps, so observers see the same statistics
        as under per-item arrival events.
        """
        c = self._cursor
        if j <= c:
            return
        now = self.engine.now
        times = self._times
        q0 = self.queues[0]
        dropped = q0.push_many(np.arange(c, j, dtype=np.int64), now=now)
        self._in_flight += j - c
        self._cursor = j
        if self.collector is not None:
            if dropped is None:
                on_enqueue = self.collector.on_enqueue
                qlen = len(q0) - (j - c)
                for k in range(c, j):
                    qlen += 1
                    on_enqueue(0, float(times[k]), 1, qlen)
            else:
                # Shedding reshuffled the queue; the per-item replay's
                # incremental lengths no longer apply.  Record the batch
                # wholesale at drain time instead.
                self.collector.on_enqueue(0, now, j - c, len(q0))
        if self.trace is not None:
            record = self.trace.record
            for k in range(c, j):
                origin = float(times[k])
                record(origin, "arrival", "stream", origin=origin)
        if j >= self.n_items:
            self._arrivals_done = True
        if dropped is not None and dropped.size:
            self._on_shed(0, dropped, now)

    def _maybe_shutdown(self) -> None:
        if (
            self._arrivals_done
            and self._in_flight == 0
            and not self._inflight_firings
            and not self._shutdown
        ):
            self._shutdown = True
            if self._gps_event is not None:
                self._gps_event.cancel()
                self._gps_event = None

    def _fire(self, i: int) -> None:
        if self._shutdown:
            return
        now = self.engine.now
        if self._faults is not None:
            release = self._faults.stall_release(i, now)
            if release > now:
                # Stalled: defer this firing to the stall's end.
                self.engine.schedule(
                    release, self._fire_fns[i], priority=self._prio_fire
                )
                return
        if i == 0:
            self._drain_arrivals(now)
        ids = self.queues[i].pop_up_to(self._v)
        consumed = ids.size
        t_i = self._service_f[i]
        if self._faults is not None:
            t_i *= self._faults.service_factor(i, now)
        if self.collector is not None:
            self.collector.on_fire(i, now, int(consumed), len(self.queues[i]))
        if self.trace is not None:
            self.trace.record(now, "fire", self._names[i],
                              consumed=int(consumed))

        if self._timing.static:
            if consumed:
                self.engine.schedule(
                    now + t_i,
                    partial(self._complete, i, ids, now),
                    priority=i,
                )
            else:
                # An empty firing's completion mutates no queue, so its
                # bookkeeping can run here and the completion event be
                # elided (~40% of all events under light load).  Times
                # and charges reproduce _complete's exact expressions:
                # ``done - now`` is the event-time subtraction the
                # deferred handler would have computed.  The next firing
                # is scheduled unconditionally; if another node's
                # completion triggers shutdown before it fires, it
                # early-returns exactly like a post-shutdown event.
                # _maybe_shutdown is provably a no-op here: its
                # conditions can only become true inside a completion
                # handler, which triggers shutdown itself.
                done = now + t_i
                if done > self._last_activity:
                    self._last_activity = done
                charge = (done - now) if self.charge_empty else 0.0
                self.trackers[i].record_firing(0, charge)
                self._active_time[i] += charge
                if self.collector is not None:
                    self.collector.on_complete(i, done, done - now)
                self.engine.schedule(
                    done + self._wait_after(i),
                    self._fire_fns[i],
                    priority=self._prio_fire,
                )
        else:
            self._drain_gps(now)
            tag = self._timing.begin_firing(now, i, t_i)
            self._inflight_firings[tag] = (i, ids, now)
            self._resched_gps(now)

    def _complete(self, i: int, ids: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._route(i, ids, start, now)
        # Next firing after the enforced wait.
        if not self._shutdown:
            self.engine.schedule(
                now + self._wait_after(i),
                self._fire_fns[i],
                priority=self._prio_fire,
            )
        self._maybe_shutdown()

    def _route(
        self, i: int, ids: np.ndarray, start: float, now: float
    ) -> None:
        """Account node ``i``'s firing completing at ``now`` and route its
        outputs over the node's channels: the half of a completion that
        the adaptive subclass shares."""
        self._last_activity = max(self._last_activity, now)
        consumed = ids.size
        # Charge the realized firing duration as active time (equals t_i
        # under idealized timing); an empty firing is charged only under
        # the paper's accounting, not under the vacation ablation.
        charge = (now - start) if (consumed > 0 or self.charge_empty) else 0.0
        self.trackers[i].record_firing(int(consumed), charge)
        self._active_time[i] += charge
        if self.collector is not None:
            self.collector.on_complete(i, now, now - start)
        if consumed:
            # The consumed items leave the count before their exits are
            # observed, and sheds wait until every channel's push counts,
            # so no shed can see a partial in-flight total.
            self._in_flight -= consumed
            produced = 0
            sheds = []
            for dst, gain, rng, sink in self._routes[i]:
                if rng is None:
                    outputs = ids
                else:
                    outputs = np.repeat(ids, gain.sample(rng, consumed))
                produced += outputs.size
                if dst is None:
                    self._exit(outputs, now, sink)
                    continue
                q = self.queues[dst]
                dropped = q.push_many(outputs, now=now)
                self._in_flight += outputs.size
                if self.collector is not None:
                    self.collector.on_enqueue(dst, now, outputs.size, len(q))
                if dropped is not None and dropped.size:
                    sheds.append((dst, dropped))
            for dst, dropped in sheds:
                self._on_shed(dst, dropped, now)
            if self.trace is not None:
                self.trace.record(
                    now, "complete", self._names[i],
                    consumed=int(consumed), produced=int(produced),
                )

    def _exit(
        self, outputs: np.ndarray, now: float, sink: LatencyLedger | None
    ) -> None:
        """Score a completion's outputs leaving the pipeline at ``now``."""
        origins = self._times[outputs]
        self.ledger.record_exits(origins, now, ids=outputs)
        if sink is not None:
            sink.record_exits(origins, now, ids=outputs)
        # A firing whose gains emitted nothing has no exit to observe.
        if self._watchdog is not None and outputs.size:
            slack = float(origins.min()) + self.deadline - now
            self._watchdog.observe_exit(now, slack, self._in_flight)

    # -- GPS plumbing ----------------------------------------------------------

    def _drain_gps(self, now: float) -> None:
        for t_done, tag in self._timing.advance(now):
            info = self._inflight_firings.pop(tag, None)
            if info is None:
                raise SimulationError(f"unknown GPS completion tag {tag!r}")
            i, ids, start = info
            self._complete(i, ids, start)

    def _on_gps_event(self) -> None:
        self._gps_event = None
        self._drain_gps(self.engine.now)
        self._resched_gps(self.engine.now)

    def _resched_gps(self, now: float) -> None:
        if self._gps_event is not None:
            self._gps_event.cancel()
            self._gps_event = None
        nxt = self._timing.next_completion(now)
        if nxt is not None:
            t_next = max(nxt[0], now)
            self._gps_event = self.engine.schedule(
                t_next, self._on_gps_event, priority=_PRIO_GPS
            )

    # -- run ---------------------------------------------------------------------

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        return self._run(run_enforced_fast)

    def _run(self, fast) -> SimMetrics:
        """Body of :meth:`run`, shared with the DAG subclass.

        ``fast`` is the closed-form replay, passed from the calling
        module's global so each class's run can be traced on its own.
        It is eligible only for plain idealized-timing runs, bit-identical
        to the event loop when taken (see :mod:`repro.sim.fastpath`), and
        returns None to fall back — e.g. under ``REPRO_BACKEND=python``.
        """
        self._generate_arrivals()
        hwm_items = fast(self, self._times)
        if hwm_items is None:
            # No per-arrival events: the head node's firings drain the
            # arrival array lazily (see module docstring).  Firings
            # self-perpetuate until shutdown, so the drain always happens.
            self._schedule_initial_firings()
            self.engine.run(max_events=self.max_events)
            return self.finalize()
        return self._collect(hwm_items)

    # -- co-simulation (shared engine) --------------------------------------

    def prepare(self) -> None:
        """Arm this simulator on its engine without running the loop.

        The co-simulation protocol (:mod:`repro.tenancy.sim`): each of K
        simulators sharing one :class:`~repro.des.engine.Engine` calls
        ``prepare()``, the owner runs the engine once to quiescence, and
        each collects its own metrics with :meth:`finalize`.  The
        closed-form fast path is intentionally skipped — co-scheduled
        runs need the explicit event loop.  Single use, like :meth:`run`.
        """
        self._generate_arrivals()
        self._schedule_initial_firings()

    def finalize(self, strategy: str = "enforced", **extra) -> SimMetrics:
        """Collect metrics after a shared engine run following :meth:`prepare`.

        ``strategy`` labels the metrics and ``extra`` joins
        ``metrics.extra`` (the adaptive subclass's policy fields).
        """
        if self._times is None:
            raise SimulationError("finalize() requires prepare() first")
        self._check_drained()
        hwm_items = np.asarray(
            [q.max_depth for q in self.queues], dtype=float
        )
        return self._collect(hwm_items, strategy, **extra)

    def _generate_arrivals(self) -> None:
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True
        self._times = self.arrivals.generate(
            self.n_items, self.rng.stream("arrivals")
        )
        if self._faults is not None:
            # Arrival bursts remap the same seed-determined stream; the
            # RNG draw above is identical with or without faults.
            self._times = self._faults.transform_arrivals(self._times)

    def _schedule_initial_firings(self) -> None:
        for i, fire in enumerate(self._fire_fns):
            self.engine.schedule(
                float(self.start_offsets[i]), fire, priority=self._prio_fire
            )

    def _check_drained(self) -> None:
        if self._in_flight != 0 or self._inflight_firings:
            raise SimulationError(
                f"pipeline failed to drain: {self._in_flight} items in "
                f"flight, {len(self._inflight_firings)} firings active"
            )

    def _collect(
        self, hwm_items: np.ndarray, strategy: str = "enforced", **extra
    ) -> SimMetrics:
        makespan = max(self._last_activity, float(self._times[-1]))
        if makespan <= 0:
            makespan = float("nan")
        af = float(np.sum(self._active_time)) / (self._n_nodes * makespan)
        hwm = hwm_items / self._v
        extra.update(
            timing=self._timing_name,
            charge_empty=self.charge_empty,
            ledger=self.ledger,
        )
        degraded_intervals: tuple[tuple[float, float], ...] = ()
        if self._watchdog is not None:
            degraded_intervals = self._watchdog.finalize(makespan)
        if (
            self._watchdog is not None
            or self._faults is not None
            or self._shed_counts.any()
        ):
            extra["resilience"] = {
                "shed_per_node": self._shed_counts.copy(),
                "shed_total": int(self._shed_counts.sum()),
                "dropped_items": self.ledger.dropped_items,
                "degraded_intervals": degraded_intervals,
                "degraded_time": (
                    self._watchdog.degraded_time(makespan)
                    if self._watchdog is not None
                    else 0.0
                ),
                "degradations": (
                    self._watchdog.degradations
                    if self._watchdog is not None
                    else 0
                ),
            }
        if self.collector is not None:
            extra["telemetry"] = self.collector.finalize(
                strategy=strategy,
                makespan=makespan,
                events_processed=self.engine.events_processed,
                wall_time=self.engine.wall_time,
                degraded_intervals=degraded_intervals,
            )
        return SimMetrics(
            strategy=strategy,
            n_items=self.n_items,
            makespan=makespan,
            active_time_per_node=self._active_time.copy(),
            active_fraction=af,
            missed_items=self.ledger.missed_items,
            miss_rate=self.ledger.miss_rate(self.n_items),
            outputs=self.ledger.outputs,
            mean_latency=self.ledger.latency.mean,
            max_latency=self.ledger.latency.max
            if self.ledger.outputs
            else math.nan,
            queue_hwm_vectors=hwm,
            firings=np.asarray([tr.firings for tr in self.trackers]),
            empty_firings=np.asarray([tr.empty_firings for tr in self.trackers]),
            mean_occupancy=np.asarray(
                [tr.mean_occupancy for tr in self.trackers]
            ),
            extra=extra,
        )
