"""Frozen pre-vectorization simulator implementations (the reference).

This module preserves, verbatim in behavior, the per-item hot paths the
production simulators had before the vectorization pass:

- :class:`ReferenceItemQueue` — the ``collections.deque`` FIFO with
  per-item Python loops in ``push_many``/``pop_up_to`` (and the old
  ``clear()`` semantics that counted dropped items as popped);
- :class:`ReferenceLatencyLedger` — the origin-timestamp-keyed ledger
  that calls :meth:`record_exit` once per output (and therefore
  collapses distinct items whose arrival timestamps tie);
- :class:`ReferenceEnforcedSimulator`,
  :class:`ReferenceAdaptiveSimulator`,
  :class:`ReferenceMonolithicSimulator` — the simulators with one heap
  event + lambda per arrival and per-firing tracker updates.

They are a test oracle and must not be "improved": the seed-for-seed
equivalence suite (``tests/test_sim_equivalence.py``) and the
differential fuzz (``tests/test_sim_differential_fuzz.py``) pin the
production simulators' :class:`~repro.sim.metrics.SimMetrics`
bit-for-bit against these implementations.  The tied-timestamp
regression test also uses :class:`ReferenceLatencyLedger` to
demonstrate the identity bug that the id-keyed production ledger fixes.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.spec import PipelineSpec
from repro.des.engine import Engine
from repro.des.events import Event
from repro.des.monitors import Accumulator
from repro.des.rng import RngRegistry
from repro.des.trace import TraceRecorder
from repro.errors import SimulationError, SpecError
from repro.obs.telemetry import (
    EngineTelemetry,
    NodeTelemetry,
    RunTelemetry,
    TelemetryCollector,
)
from repro.sim.metrics import SimMetrics
from repro.simd.occupancy import OccupancyTracker
from repro.simd.sharing import IdealizedSharing, TimingModel, WorkConservingSharing

__all__ = [
    "ReferenceItemQueue",
    "ReferenceLatencyLedger",
    "ReferenceEnforcedSimulator",
    "ReferenceAdaptiveSimulator",
    "ReferenceMonolithicSimulator",
]

_PRIO_ARRIVAL = -1
_PRIO_COMPLETE = 0
_PRIO_FIRE = 1


class ReferenceItemQueue:
    """The pre-vectorization deque-backed FIFO (per-item loops)."""

    __slots__ = ("name", "capacity", "_items", "_max_depth", "_pushed", "_popped")

    def __init__(self, name: str, *, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"queue capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._items: deque[float] = deque()
        self._max_depth = 0
        self._pushed = 0
        self._popped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def total_pushed(self) -> int:
        return self._pushed

    @property
    def total_popped(self) -> int:
        return self._popped

    def push(self, origin: float) -> None:
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise SimulationError(
                f"queue {self.name!r} overflowed its capacity {self.capacity}"
            )
        self._items.append(origin)
        self._pushed += 1
        if len(self._items) > self._max_depth:
            self._max_depth = len(self._items)

    def push_many(self, origins: Iterable[float]) -> None:
        for origin in origins:
            self.push(origin)

    def pop_up_to(self, k: int) -> np.ndarray:
        if k < 0:
            raise SimulationError(f"cannot pop a negative count ({k})")
        n = min(k, len(self._items))
        out = np.empty(n, dtype=float)
        items = self._items
        for i in range(n):
            out[i] = items.popleft()
        self._popped += n
        return out

    def peek_oldest(self) -> float:
        if not self._items:
            raise SimulationError(f"queue {self.name!r} is empty")
        return self._items[0]

    def clear(self) -> None:
        self._popped += len(self._items)
        self._items.clear()


class ReferenceLatencyLedger:
    """The pre-vectorization origin-keyed, per-output ledger.

    Keys deadline bookkeeping on the origin *timestamp*, so two distinct
    items arriving at the same instant are conflated — the bug the
    production ledger fixes by keying on integer item ids.
    """

    def __init__(self, deadline: float, *, keep_samples: bool = False) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.deadline = deadline
        self.latency = Accumulator("latency", keep_samples=keep_samples)
        self._missed_origins: set[float] = set()
        self._exited_origins: set[float] = set()
        self._outputs = 0
        self._late_outputs = 0

    @property
    def outputs(self) -> int:
        return self._outputs

    @property
    def late_outputs(self) -> int:
        return self._late_outputs

    @property
    def missed_items(self) -> int:
        return len(self._missed_origins)

    @property
    def items_with_output(self) -> int:
        return len(self._exited_origins)

    def record_exit(self, origin: float, exit_time: float) -> None:
        lat = exit_time - origin
        if lat < 0:
            raise ValueError(
                f"output exits before its origin (origin={origin}, "
                f"exit={exit_time})"
            )
        self.latency.add(lat)
        self._outputs += 1
        self._exited_origins.add(origin)
        if lat > self.deadline * (1 + 1e-12):
            self._late_outputs += 1
            self._missed_origins.add(origin)

    def record_exits(self, origins: np.ndarray, exit_time: float) -> None:
        for origin in origins:
            self.record_exit(float(origin), exit_time)

    def miss_rate(self, n_items: int) -> float:
        if n_items <= 0:
            return math.nan
        return self.missed_items / n_items


class ReferenceEnforcedSimulator:
    """Pre-vectorization enforced-waits simulator (one event per arrival).

    Parameters are those of
    :class:`~repro.sim.enforced.EnforcedWaitsSimulator`.
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
    ) -> None:
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (pipeline.n_nodes,):
            raise SpecError(
                f"waits must have length {pipeline.n_nodes}, got {waits.shape}"
            )
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if n_items < 1:
            raise SpecError(f"n_items must be >= 1, got {n_items}")
        if deadline <= 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        if start_offsets is None:
            start_offsets = np.zeros(pipeline.n_nodes)
        else:
            start_offsets = np.asarray(start_offsets, dtype=float)
            if start_offsets.shape != (pipeline.n_nodes,):
                raise SpecError(
                    f"start_offsets must have length {pipeline.n_nodes}"
                )
            if (start_offsets < 0).any():
                raise SpecError("start_offsets must be >= 0")
        self.start_offsets = start_offsets

        self.pipeline = pipeline
        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.charge_empty = bool(charge_empty_firings)
        self.trace = trace
        self.max_events = max_events

        self.rng = RngRegistry(seed)
        self.engine = Engine()
        n = pipeline.n_nodes
        self.queues = [ReferenceItemQueue(f"q{i}") for i in range(n)]
        self.trackers = [
            OccupancyTracker(node.name, pipeline.vector_width)
            for node in pipeline.nodes
        ]
        self.ledger = ReferenceLatencyLedger(
            deadline, keep_samples=keep_latency_samples
        )
        self.collector = (
            TelemetryCollector(
                [node.name for node in pipeline.nodes], pipeline.vector_width
            )
            if telemetry
            else None
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

        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._active_time = np.zeros(n)
        self._ran = False

    def _arrive(self, origin: float) -> None:
        self.queues[0].push(origin)
        self._in_flight += 1
        if self.collector is not None:
            self.collector.on_enqueue(
                0, self.engine.now, 1, len(self.queues[0])
            )
        if self.trace is not None:
            self.trace.record(self.engine.now, "arrival", "stream", origin=origin)

    def _arrivals_finished(self) -> None:
        self._arrivals_done = True
        self._maybe_shutdown()

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
        origins = self.queues[i].pop_up_to(self.pipeline.vector_width)
        consumed = origins.size
        t_i = self.pipeline.nodes[i].service_time
        if self.collector is not None:
            self.collector.on_fire(i, now, int(consumed), len(self.queues[i]))
        if self.trace is not None:
            self.trace.record(now, "fire", self.pipeline.nodes[i].name,
                              consumed=int(consumed))

        if self._timing.static:
            done = now + t_i
            self.engine.schedule(
                done,
                lambda i=i, o=origins, s=now: self._complete(i, o, s),
                priority=_PRIO_COMPLETE,
            )
        else:
            self._drain_gps(now)
            tag = self._timing.begin_firing(now, i, t_i)
            self._inflight_firings[tag] = (i, origins, now)
            self._resched_gps(now)

    def _complete(self, i: int, origins: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._last_activity = max(self._last_activity, now)
        consumed = origins.size
        charge = (now - start) if (consumed > 0 or self.charge_empty) else 0.0
        self.trackers[i].record_firing(int(consumed), charge)
        self._active_time[i] += charge
        if self.collector is not None:
            self.collector.on_complete(i, now, now - start)
        if consumed:
            gain = self.pipeline.nodes[i].gain
            node_rng = self.rng.stream(f"node{i}.gain")
            counts = gain.sample(node_rng, consumed)
            outputs = np.repeat(origins, counts)
            if i + 1 < self.pipeline.n_nodes:
                self.queues[i + 1].push_many(outputs)
                self._in_flight += int(outputs.size) - int(consumed)
                if self.collector is not None:
                    self.collector.on_enqueue(
                        i + 1, now, int(outputs.size), len(self.queues[i + 1])
                    )
            else:
                self.ledger.record_exits(outputs, now)
                self._in_flight -= int(consumed)
            if self.trace is not None:
                self.trace.record(
                    now, "complete", self.pipeline.nodes[i].name,
                    consumed=int(consumed), produced=int(outputs.size),
                )
        if not self._shutdown:
            self.engine.schedule(
                now + self.waits[i],
                lambda i=i: self._fire(i),
                priority=_PRIO_FIRE,
            )
        self._maybe_shutdown()

    def _drain_gps(self, now: float) -> None:
        for t_done, tag in self._timing.advance(now):
            info = self._inflight_firings.pop(tag, None)
            if info is None:
                raise SimulationError(f"unknown GPS completion tag {tag!r}")
            i, origins, start = info
            self._complete(i, origins, start)

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
                t_next, self._on_gps_event, priority=_PRIO_COMPLETE
            )

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True

        times = self.arrivals.generate(self.n_items, self.rng.stream("arrivals"))
        for origin in times:
            self.engine.schedule(
                float(origin),
                lambda o=float(origin): self._arrive(o),
                priority=_PRIO_ARRIVAL,
            )
        self.engine.schedule(
            float(times[-1]),
            self._arrivals_finished,
            priority=_PRIO_FIRE + 1,
        )
        for i in range(self.pipeline.n_nodes):
            self.engine.schedule(
                float(self.start_offsets[i]),
                lambda i=i: self._fire(i),
                priority=_PRIO_FIRE,
            )

        self.engine.run(max_events=self.max_events)

        if self._in_flight != 0 or self._inflight_firings:
            raise SimulationError(
                f"pipeline failed to drain: {self._in_flight} items in "
                f"flight, {len(self._inflight_firings)} firings active"
            )

        makespan = max(self._last_activity, float(times[-1]))
        if makespan <= 0:
            makespan = float("nan")
        n = self.pipeline.n_nodes
        v = self.pipeline.vector_width
        af = float(np.sum(self._active_time)) / (n * makespan)
        hwm = np.asarray([q.max_depth for q in self.queues], dtype=float) / v
        extra = {
            "timing": self._timing_name,
            "charge_empty": self.charge_empty,
            "ledger": self.ledger,
        }
        if self.collector is not None:
            extra["telemetry"] = self.collector.finalize(
                strategy="enforced",
                makespan=makespan,
                events_processed=self.engine.events_processed,
                wall_time=self.engine.wall_time,
            )
        return SimMetrics(
            strategy="enforced",
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


class ReferenceAdaptiveSimulator:
    """Pre-vectorization adaptive-waits simulator (one event per arrival)."""

    def __init__(
        self,
        pipeline: PipelineSpec,
        waits: np.ndarray,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        policy: str = "full-vector",
        slack_factor: float = 1.5,
        charge_empty_firings: bool = True,
        telemetry: bool = False,
        max_events: int = 20_000_000,
    ) -> None:
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (pipeline.n_nodes,):
            raise SpecError(
                f"waits must have length {pipeline.n_nodes}, got {waits.shape}"
            )
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if policy not in ("fixed", "full-vector", "slack"):
            raise SpecError(
                f"policy must be 'fixed', 'full-vector', or 'slack', "
                f"got {policy!r}"
            )
        if slack_factor <= 0:
            raise SpecError(f"slack_factor must be > 0, got {slack_factor}")
        if n_items < 1 or deadline <= 0:
            raise SpecError("need n_items >= 1 and deadline > 0")

        self.pipeline = pipeline
        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.policy = policy
        self.slack_factor = float(slack_factor)
        self.charge_empty = bool(charge_empty_firings)
        self.max_events = max_events

        self.rng = RngRegistry(seed)
        self.engine = Engine()
        n = pipeline.n_nodes
        self.queues = [ReferenceItemQueue(f"q{i}") for i in range(n)]
        self.ledger = ReferenceLatencyLedger(deadline)
        self.collector = (
            TelemetryCollector(
                [node.name for node in pipeline.nodes], pipeline.vector_width
            )
            if telemetry
            else None
        )
        self._active_time = np.zeros(n)
        self._firings = np.zeros(n, dtype=np.int64)
        self._empty_firings = np.zeros(n, dtype=np.int64)
        self._early_firings = np.zeros(n, dtype=np.int64)
        self._items_consumed = np.zeros(n, dtype=np.int64)
        self._busy = [False] * n
        self._pending_fire: list[Event | None] = [None] * n
        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._ran = False
        periods = pipeline.service_times + waits
        self._downstream_time = np.asarray(
            [float(periods[i:].sum()) for i in range(n)]
        )

    def _should_fire_early(self, i: int) -> bool:
        if self._busy[i] or self._shutdown:
            return False
        qlen = len(self.queues[i])
        if qlen == 0:
            return False
        if self.policy == "fixed":
            return False
        if qlen >= self.pipeline.vector_width:
            return True
        if self.policy == "slack":
            head_origin = self.queues[i].peek_oldest()
            remaining = head_origin + self.deadline - self.engine.now
            return remaining < self.slack_factor * self._downstream_time[i]
        return False

    def _consider_early_fire(self, i: int) -> None:
        if self._should_fire_early(i):
            if self._pending_fire[i] is not None:
                self._pending_fire[i].cancel()
                self._pending_fire[i] = None
            self._early_firings[i] += 1
            self._fire(i)

    def _arrive(self, origin: float) -> None:
        self.queues[0].push(origin)
        self._in_flight += 1
        if self.collector is not None:
            self.collector.on_enqueue(
                0, self.engine.now, 1, len(self.queues[0])
            )
        self._consider_early_fire(0)

    def _arrivals_finished(self) -> None:
        self._arrivals_done = True
        self._maybe_shutdown()

    def _maybe_shutdown(self) -> None:
        if (
            self._arrivals_done
            and self._in_flight == 0
            and not self._shutdown
        ):
            self._shutdown = True
            for handle in self._pending_fire:
                if handle is not None:
                    handle.cancel()

    def _fire(self, i: int) -> None:
        if self._shutdown or self._busy[i]:
            return
        self._pending_fire[i] = None
        self._busy[i] = True
        now = self.engine.now
        origins = self.queues[i].pop_up_to(self.pipeline.vector_width)
        t_i = self.pipeline.nodes[i].service_time
        if self.collector is not None:
            self.collector.on_fire(
                i, now, int(origins.size), len(self.queues[i])
            )
        self.engine.schedule(
            now + t_i,
            lambda i=i, o=origins, s=now: self._complete(i, o, s),
            priority=_PRIO_COMPLETE,
        )

    def _complete(self, i: int, origins: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._busy[i] = False
        self._last_activity = max(self._last_activity, now)
        consumed = int(origins.size)
        charge = (
            (now - start) if (consumed > 0 or self.charge_empty) else 0.0
        )
        self._active_time[i] += charge
        self._firings[i] += 1
        if consumed == 0:
            self._empty_firings[i] += 1
        self._items_consumed[i] += consumed
        if self.collector is not None:
            self.collector.on_complete(i, now, now - start)
        if consumed:
            gain = self.pipeline.nodes[i].gain
            counts = gain.sample(self.rng.stream(f"node{i}.gain"), consumed)
            outputs = np.repeat(origins, counts)
            if i + 1 < self.pipeline.n_nodes:
                self.queues[i + 1].push_many(outputs)
                self._in_flight += int(outputs.size) - consumed
                if self.collector is not None:
                    self.collector.on_enqueue(
                        i + 1, now, int(outputs.size), len(self.queues[i + 1])
                    )
                self._consider_early_fire(i + 1)
            else:
                self.ledger.record_exits(outputs, now)
                self._in_flight -= consumed
        if not self._shutdown:
            self._pending_fire[i] = self.engine.schedule(
                now + self.waits[i],
                lambda i=i: self._fire(i),
                priority=_PRIO_FIRE,
            )
            self._consider_early_fire(i)
        self._maybe_shutdown()

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True
        times = self.arrivals.generate(self.n_items, self.rng.stream("arrivals"))
        for origin in times:
            self.engine.schedule(
                float(origin),
                lambda o=float(origin): self._arrive(o),
                priority=_PRIO_ARRIVAL,
            )
        self.engine.schedule(
            float(times[-1]), self._arrivals_finished, priority=_PRIO_FIRE + 1
        )
        for i in range(self.pipeline.n_nodes):
            self._pending_fire[i] = self.engine.schedule(
                0.0, lambda i=i: self._fire(i), priority=_PRIO_FIRE
            )
        self.engine.run(max_events=self.max_events)
        if self._in_flight != 0:
            raise SimulationError(
                f"pipeline failed to drain: {self._in_flight} in flight"
            )

        makespan = max(self._last_activity, float(times[-1]))
        n = self.pipeline.n_nodes
        v = self.pipeline.vector_width
        af = float(self._active_time.sum()) / (n * makespan)
        extra = {
            "policy": self.policy,
            "early_firings": self._early_firings.copy(),
        }
        if self.collector is not None:
            extra["telemetry"] = self.collector.finalize(
                strategy=f"adaptive:{self.policy}",
                makespan=makespan,
                events_processed=self.engine.events_processed,
                wall_time=self.engine.wall_time,
            )
        with np.errstate(invalid="ignore"):
            occupancy = np.where(
                self._firings > 0,
                self._items_consumed / (np.maximum(self._firings, 1) * v),
                np.nan,
            )
        return SimMetrics(
            strategy=f"adaptive:{self.policy}",
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
            queue_hwm_vectors=np.asarray(
                [q.max_depth for q in self.queues], dtype=float
            )
            / v,
            firings=self._firings.copy(),
            empty_firings=self._empty_firings.copy(),
            mean_occupancy=occupancy,
            extra=extra,
        )


def _mean_gap(times: np.ndarray) -> float:
    if times.size < 2:
        return float("nan")
    return float(times[-1] - times[0]) / (times.size - 1)


class ReferenceMonolithicSimulator:
    """Pre-vectorization monolithic simulator (per-firing tracker loop)."""

    def __init__(
        self,
        pipeline: PipelineSpec,
        block_size: int,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        flush_partial: bool = True,
        keep_latency_samples: bool = False,
        telemetry: bool = False,
    ) -> None:
        if block_size < 1:
            raise SpecError(f"block_size must be >= 1, got {block_size}")
        if n_items < 1:
            raise SpecError(f"n_items must be >= 1, got {n_items}")
        if deadline <= 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        self.pipeline = pipeline
        self.block_size = int(block_size)
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.flush_partial = bool(flush_partial)
        self.rng = RngRegistry(seed)
        self.ledger = ReferenceLatencyLedger(
            deadline, keep_samples=keep_latency_samples
        )
        self.trackers = [
            OccupancyTracker(node.name, pipeline.vector_width)
            for node in pipeline.nodes
        ]
        self.telemetry = bool(telemetry)
        self._ran = False

    def _build_telemetry(
        self, makespan: float, n_blocks: int, max_backlog: int,
        wall_time: float,
    ) -> RunTelemetry:
        v = self.pipeline.vector_width
        span = makespan if makespan > 0 and not math.isnan(makespan) else 0.0
        nodes = []
        for i, tracker in enumerate(self.trackers):
            hwm = max_backlog if i == 0 else 0
            nodes.append(
                NodeTelemetry(
                    name=tracker.name,
                    firings=tracker.firings,
                    empty_firings=tracker.empty_firings,
                    items_consumed=tracker.items_consumed,
                    mean_occupancy=tracker.mean_occupancy,
                    service_time=tracker.active_time,
                    wait_time=(
                        (span - tracker.active_time) if span else math.nan
                    ),
                    queue_hwm=hwm,
                    queue_hwm_vectors=hwm / v,
                    queue_time_avg=math.nan,
                    queue_pushed=tracker.items_consumed,
                    queue_popped=tracker.items_consumed,
                )
            )
        return RunTelemetry(
            strategy="monolithic",
            nodes=tuple(nodes),
            engine=EngineTelemetry(
                events_processed=n_blocks,
                sim_time=float(makespan),
                wall_time=wall_time,
            ),
        )

    def _process_block(self, origins: np.ndarray, start: float) -> float:
        v = self.pipeline.vector_width
        duration = 0.0
        current = origins
        for i, node in enumerate(self.pipeline.nodes):
            n_in = current.size
            firings = -(-n_in // v) if n_in else 0
            stage_time = firings * node.service_time
            duration += stage_time
            for f in range(firings):
                consumed = v if f < firings - 1 else n_in - (firings - 1) * v
                self.trackers[i].record_firing(int(consumed), node.service_time)
            if n_in:
                counts = node.gain.sample(self.rng.stream(f"node{i}.gain"), n_in)
                current = np.repeat(current, counts)
            else:
                current = current[:0]
        completion = start + duration
        if current.size:
            self.ledger.record_exits(current, completion)
        return completion

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True
        wall_start = time.perf_counter()

        times = self.arrivals.generate(
            self.n_items, self.rng.stream("arrivals")
        )
        m = self.block_size
        n_full = self.n_items // m
        block_bounds = [(k * m, (k + 1) * m) for k in range(n_full)]
        if self.flush_partial and self.n_items % m:
            block_bounds.append((n_full * m, self.n_items))

        free_at = 0.0
        active = 0.0
        steady_active = 0.0
        last_completion = 0.0
        max_backlog = 0
        for lo, hi in block_bounds:
            ready = float(times[hi - 1])
            start = max(ready, free_at)
            arrived = int(np.searchsorted(times, start, side="right"))
            max_backlog = max(max_backlog, arrived - lo)
            completion = self._process_block(times[lo:hi].copy(), start)
            active += completion - start
            if hi - lo == m:
                steady_active += completion - start
            free_at = completion
            last_completion = max(last_completion, completion)

        makespan = max(last_completion, float(times[-1]))
        if makespan <= 0:
            makespan = float("nan")
        af = active / makespan
        v = self.pipeline.vector_width
        hwm = np.full(self.pipeline.n_nodes, np.nan)
        hwm[0] = max_backlog / v
        extra = {
            "block_size": m,
            "blocks": len(block_bounds),
            "max_backlog_items": max_backlog,
            "ledger": self.ledger,
            "af_steady": (
                steady_active / (n_full * m * _mean_gap(times))
                if n_full
                else float("nan")
            ),
        }
        if self.telemetry:
            extra["telemetry"] = self._build_telemetry(
                makespan,
                len(block_bounds),
                max_backlog,
                time.perf_counter() - wall_start,
            )
        return SimMetrics(
            strategy="monolithic",
            n_items=self.n_items,
            makespan=makespan,
            active_time_per_node=np.asarray([active]),
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
            empty_firings=np.asarray(
                [tr.empty_firings for tr in self.trackers]
            ),
            mean_occupancy=np.asarray(
                [tr.mean_occupancy for tr in self.trackers]
            ),
            extra=extra,
        )
