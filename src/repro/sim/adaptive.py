"""Adaptive firing policies: an extension beyond the paper's fixed waits.

The paper enforces a *fixed* wait ``w_i`` after every firing "for
simplicity of analysis" and leaves richer policies to future work.  This
module implements the natural next step: keep the optimizer's ``w_i`` as
the *maximum* wait, but allow a node to fire early when additional
information says waiting longer cannot help:

- ``"full-vector"`` — fire as soon as a full vector of ``v`` inputs is
  queued.  Waiting past that point cannot improve SIMD occupancy (a
  firing consumes at most ``v``), so early firing strictly reduces
  latency at equal or better occupancy per firing.  Because inputs arrive
  at a bounded rate, a node can accumulate ``v`` items no faster than the
  head-rate cap allows, so the firing rate stays bounded.
- ``"slack"`` — additionally fire early (with however many items are
  queued) when the oldest queued item's remaining deadline slack, after
  accounting for the estimated downstream traversal time, falls below a
  safety factor.  This trades occupancy for deadline safety exactly where
  it is needed.

The simulator rides the shared enforced-waits loop:
:class:`AdaptiveWaitsSimulator` subclasses
:class:`~repro.sim.enforced.EnforcedWaitsSimulator` and inherits its
argument checks, queues and shedding, watchdog wait rule, arrival
delivery, routing, exit scoring, shutdown and metrics.  It adds only the
early-fire triggers, the target-arrival scheduling below, and per-node
busy flags: a firing's completion is never elided, even when empty,
because a busy node must not fire early.  The run shuts down once the
arrivals are done and nothing is in flight, and lane occupancy is
``items / (firings * v)``, exactly as in the enforced simulator; the
``"fixed"`` policy (the ablation A4 baseline) is bit-identical to it.

Arrival scheduling
------------------
Early-firing triggers are evaluated at each arrival, so arrivals cannot
be drained wholesale as in the enforced simulator.  Instead, at most one
arrival event is pending at a time, at the *target* arrival: the first
one whose delivery could change what happens next.

- Under ``"fixed"`` and ``"full-vector"`` with no per-arrival observer
  (no ``runtime_faults``, ``watchdog`` or ``queue_capacity``), only the
  arrival that fills node 0's vector can trigger, so the target is
  arrival ``cursor + max(v - len(q0), 1) - 1`` (under ``"fixed"``
  nothing triggers and it is simply the last arrival).  The target's
  event delivers every arrival up to and including it in one chunk.
  A scheduled (not early) head firing first delivers every arrival
  with timestamp <= now, and every head pop recomputes the target.
  An early firing delivers nothing: arrivals tied with the trigger but
  queued behind it reach node 0 only after its pop, as they do one at
  a time.
- ``"slack"`` and the resilience kwargs observe every arrival, so the
  target is always the next undelivered arrival.

Whenever the head node starts a firing — during which triggers are
inert, since a busy node never fires early — every arrival landing
within the firing window is drained in one chunk at the completion
boundary, before the completion handler re-evaluates the triggers.
Telemetry observations of chunked arrivals are replayed with their
original timestamps.  The result is bit-identical to the per-item
reference (``ReferenceAdaptiveSimulator`` in ``tests/sim_reference.py``).

The degraded-mode runtime kwargs (``runtime_faults``, ``queue_capacity``
+ ``shed_policy``, ``watchdog``) are those of the enforced simulator;
see :mod:`repro.sim.enforced`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.spec import PipelineSpec
from repro.des.events import Event
from repro.errors import SpecError
from repro.resilience.faults import RuntimeFaultPlan
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.metrics import SimMetrics

__all__ = ["AdaptiveWaitsSimulator"]

# Every completion ranks alike (ties resolve in scheduling order), as in
# the per-item reference: with early firing, the order of same-time
# completions on adjacent nodes decides which queue state a trigger sees.
_PRIO_ARRIVAL = -1
_PRIO_COMPLETE = 0
_PRIO_FIRE = 1


class AdaptiveWaitsSimulator(EnforcedWaitsSimulator):
    """Enforced waits with optional early-firing triggers.

    Parameters mirror :class:`~repro.sim.enforced.EnforcedWaitsSimulator`
    (idealized timing only, first firings at time 0), plus:

    policy:
        ``"fixed"``, ``"full-vector"``, or ``"slack"``.
    slack_factor:
        For ``"slack"``: fire early when the head item's remaining time
        budget is below ``slack_factor`` times the estimated downstream
        traversal time (one period per remaining stage).
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
        policy: str = "full-vector",
        slack_factor: float = 1.5,
        charge_empty_firings: bool = True,
        telemetry: bool = False,
        max_events: int = 20_000_000,
        runtime_faults: RuntimeFaultPlan | None = None,
        queue_capacity: int | None = None,
        shed_policy: str | None = None,
        watchdog: DeadlineWatchdog | None = None,
    ) -> None:
        if policy not in ("fixed", "full-vector", "slack"):
            raise SpecError(
                f"policy must be 'fixed', 'full-vector', or 'slack', "
                f"got {policy!r}"
            )
        if slack_factor <= 0:
            raise SpecError(f"slack_factor must be > 0, got {slack_factor}")
        super().__init__(
            pipeline,
            waits,
            arrivals,
            deadline,
            n_items,
            seed=seed,
            charge_empty_firings=charge_empty_firings,
            telemetry=telemetry,
            max_events=max_events,
            runtime_faults=runtime_faults,
            queue_capacity=queue_capacity,
            shed_policy=shed_policy,
            watchdog=watchdog,
        )
        self.policy = policy
        self.slack_factor = float(slack_factor)
        n = self._n_nodes
        self._early_firings = np.zeros(n, dtype=np.int64)
        self._busy = [False] * n
        self._pending_fire: list[Event | None] = [None] * n
        # The pending arrival-side event: the target arrival's delivery or
        # a busy-window drain (see the module docstring).
        self._next_arrival: Event | None = None
        self._target = -1  # arrival index _next_arrival delivers through
        # Only the vector-filling arrival can matter when nothing observes
        # single arrivals: no slack trigger and no resilience kwargs.
        self._skip_arrivals = (
            policy != "slack"
            and self._faults is None
            and watchdog is None
            and queue_capacity is None
        )
        # Downstream traversal estimate for the slack policy: one full
        # period per stage from this node (inclusive) to the tail.
        periods = pipeline.service_times + self.waits
        self._downstream_time = np.asarray(
            [float(periods[i:].sum()) for i in range(n)]
        )

    # -- early-fire triggers -------------------------------------------------

    def _should_fire_early(self, i: int) -> bool:
        if self._busy[i] or self._shutdown:
            return False
        if (
            self._faults is not None
            and self._faults.stall_release(i, self.engine.now)
            > self.engine.now
        ):
            # A stalled node cannot usefully fire early; attempting to
            # would just churn the deferral path and miscount
            # early_firings.
            return False
        qlen = len(self.queues[i])
        if qlen == 0:
            return False
        if self.policy == "fixed":
            return False
        if qlen >= self._v:
            return True
        if self.policy == "slack":
            head_id = self.queues[i].peek_oldest()
            head_origin = float(self._times[head_id])
            remaining = head_origin + self.deadline - self.engine.now
            return remaining < self.slack_factor * self._downstream_time[i]
        return False

    def _consider_early_fire(self, i: int) -> None:
        if self._should_fire_early(i):
            if self._pending_fire[i] is not None:
                self._pending_fire[i].cancel()
                self._pending_fire[i] = None
            self._early_firings[i] += 1
            self._fire(i, early=True)

    # -- arrival scheduling --------------------------------------------------

    def _arrival_target(self) -> int:
        """Index of the next arrival whose delivery can change the run."""
        c = self._cursor
        if not self._skip_arrivals:
            return c
        if self.policy == "fixed":
            return self.n_items - 1
        fill = max(self._v - len(self.queues[0]), 1)
        return min(c + fill, self.n_items) - 1

    def _arm_arrival(self) -> None:
        """(Re)schedule the pending arrival event at the current target."""
        if self._cursor >= self.n_items:
            return
        target = self._arrival_target()
        if self._next_arrival is not None:
            if target == self._target:
                return
            self._next_arrival.cancel()
        self._target = target
        self._next_arrival = self.engine.schedule(
            float(self._times[target]), self._arrive, priority=_PRIO_ARRIVAL
        )

    def _arrive(self) -> None:
        """Deliver arrivals through the target, then check the trigger."""
        self._next_arrival = None
        self._deliver(self._target + 1)
        self._consider_early_fire(0)
        if self._next_arrival is None:  # no head pop re-armed it
            self._arm_arrival()

    def _drain_busy_window(self) -> None:
        """Chunk-deliver every arrival with timestamp <= now.

        Scheduled at a head-node firing's completion boundary with
        arrival priority, so it runs after same-time arrivals would have
        and before the completion handler re-checks the triggers.  While
        the node was busy each per-item trigger check was a no-op, so
        delivering the window's arrivals in one chunk is observationally
        identical.
        """
        self._next_arrival = None
        self._drain_arrivals(self.engine.now)
        self._arm_arrival()

    # -- event handlers --------------------------------------------------------

    def _fire(self, i: int, early: bool = False) -> None:
        if self._shutdown or self._busy[i]:
            return
        now = self.engine.now
        if self._faults is not None:
            release = self._faults.stall_release(i, now)
            if release > now:
                # Stalled: defer this firing to the stall's end.
                if self._pending_fire[i] is not None:
                    self._pending_fire[i].cancel()
                self._pending_fire[i] = self.engine.schedule(
                    release, self._fire_fns[i], priority=_PRIO_FIRE
                )
                return
        if i == 0 and self._skip_arrivals and not early:
            # A scheduled head firing observes every arrival up to now.
            self._drain_arrivals(now)
        self._pending_fire[i] = None
        self._busy[i] = True
        ids = self.queues[i].pop_up_to(self._v)
        t_i = self._service_f[i]
        if self._faults is not None:
            t_i *= self._faults.service_factor(i, now)
        if self.collector is not None:
            self.collector.on_fire(i, now, int(ids.size), len(self.queues[i]))
        done = now + t_i
        if i == 0 and self._cursor < self.n_items:
            if float(self._times[self._cursor]) <= done:
                # Arrivals inside this firing window cannot trigger
                # anything; fold them into one chunk event at the
                # completion boundary.
                if self._next_arrival is not None:
                    self._next_arrival.cancel()
                self._next_arrival = self.engine.schedule(
                    done, self._drain_busy_window, priority=_PRIO_ARRIVAL
                )
            else:
                self._arm_arrival()
        # Even an empty firing keeps its completion event: until then the
        # node is busy and no trigger may fire it.
        self.engine.schedule(
            done, partial(self._complete, i, ids, now), priority=_PRIO_COMPLETE
        )

    def _complete(self, i: int, ids: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._busy[i] = False
        self._route(i, ids, start, now)
        if ids.size and i + 1 < self._n_nodes:
            self._consider_early_fire(i + 1)
        if not self._shutdown:
            self._pending_fire[i] = self.engine.schedule(
                now + self._wait_after(i), self._fire_fns[i],
                priority=_PRIO_FIRE,
            )
            # The queue may already satisfy a trigger (e.g. it filled
            # while this firing ran).
            self._consider_early_fire(i)
        self._maybe_shutdown()

    # -- run -----------------------------------------------------------------

    def _schedule_initial_firings(self) -> None:
        self._arm_arrival()
        for i, fire in enumerate(self._fire_fns):
            self._pending_fire[i] = self.engine.schedule(
                0.0, fire, priority=_PRIO_FIRE
            )

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        self._generate_arrivals()
        self._schedule_initial_firings()
        self.engine.run(max_events=self.max_events)
        return self.finalize()

    def finalize(self) -> SimMetrics:
        """Collect metrics labelled with the policy after the engine ran."""
        return super().finalize(
            f"adaptive:{self.policy}",
            policy=self.policy,
            early_firings=self._early_firings.copy(),
        )
