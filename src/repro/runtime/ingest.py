"""Feeding the live executor: real-time replay and hardened TCP ingest.

:class:`ReplaySource` turns any :class:`~repro.arrivals.base.\
ArrivalProcess` — Poisson, burst, or a recorded
:class:`~repro.arrivals.trace.TraceArrivals` — into real-time ingest: it
generates the arrival timestamps up front, then submits each item to the
executor when the wall clock reaches its (scaled) timestamp.  ``scale``
maps recorded time units to seconds, so a trace captured in
microseconds replays at true speed with ``scale=1e-6``, or at 10x speed
with ``scale=1e-7``.

:class:`IngestServer` is the network mode: a JSON-lines TCP server built
on the shared hardened serving layer (:mod:`repro.serving`), so it
enforces the same line-size/idle/deadline/connection limits as
``repro-plan serve`` and answers the same ``{"op": "health"}`` probe.
Each request line is one object::

    {"op": "submit", "items": [[...], ...]}   -> {"ok": true, "accepted": k}
    {"op": "stats"}                           -> runtime telemetry summary
    {"op": "health"}                          -> readiness/liveness probe
    {"op": "shutdown"}                        -> {"op": "shutdown", "ok": true}

``submit`` rows are payload rows for the head kernel (scalars or
fixed-width lists); items originate at the moment the server accepts
them, so end-to-end latency includes network delivery — exactly what a
live deployment would measure.

With an :class:`~repro.serving.admission.AdmissionController` attached
(``repro-run serve`` derives one from the plan's feasibility certificate
via :func:`~repro.serving.admission.budget_from_plan`), a ``submit``
that would push the live in-flight population past the certified budget
is rejected with ``{"ok": false, "retriable": true}`` — the client backs
off instead of the queues growing without bound.  Shutdown is a
graceful drain: the server stops accepting, lets in-flight requests
finish, and only then (with ``finish_on_shutdown``) marks executor
ingest done.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.errors import SpecError
from repro.runtime.executor import PipelineExecutor
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.serving.server import JsonLinesServer

__all__ = ["ReplaySource", "IngestServer"]


class ReplaySource:
    """Replay arrival timestamps against an executor in real time.

    Parameters
    ----------
    arrivals:
        An :class:`~repro.arrivals.base.ArrivalProcess` (timestamps are
        drawn via ``generate(n_items, rng)``) or a precomputed 1-D
        nondecreasing array of timestamps.
    sample_payload:
        ``(n, rng) -> payload rows`` for the head kernel (e.g.
        ``RuntimeWorkload.sample_payload``).
    n_items:
        Number of items to replay (required for an ``ArrivalProcess``;
        defaults to the full array otherwise).
    scale:
        Seconds per recorded time unit.  The executor plans in seconds,
        so an arrival process parameterized in seconds replays with the
        default ``scale=1.0``.
    seed:
        Seed for both timestamp generation and payload sampling.
    """

    def __init__(
        self,
        arrivals: ArrivalProcess | np.ndarray,
        sample_payload,
        *,
        n_items: int | None = None,
        scale: float = 1.0,
        seed: int = 0,
        chunk_seconds: float = 0.005,
    ) -> None:
        if scale <= 0:
            raise SpecError(f"scale must be > 0, got {scale}")
        rng = np.random.default_rng(seed)
        if isinstance(arrivals, ArrivalProcess):
            if n_items is None:
                raise SpecError(
                    "n_items is required when replaying an ArrivalProcess"
                )
            times = arrivals.generate(n_items, rng)
        else:
            times = np.asarray(arrivals, dtype=float)
            if times.ndim != 1 or times.size == 0:
                raise SpecError(
                    "arrival times must be a non-empty 1-D array"
                )
            if (np.diff(times) < 0).any():
                raise SpecError("arrival times must be nondecreasing")
            if n_items is not None:
                if n_items > times.size:
                    raise SpecError(
                        f"trace holds {times.size} arrivals, "
                        f"{n_items} requested"
                    )
                times = times[:n_items]
        # Rebase to 0 so replay starts immediately regardless of the
        # trace's capture epoch, then map recorded units to seconds.
        self.times = (times - times[0]) * scale
        self.sample_payload = sample_payload
        self.scale = float(scale)
        self.chunk_seconds = float(chunk_seconds)
        self._rng = rng
        self.submitted = 0

    def __len__(self) -> int:
        return int(self.times.size)

    def feed(
        self, executor: PipelineExecutor, *, finish: bool = True
    ) -> int:
        """Submit every item at its wall-clock time (blocking).

        Due items are coalesced into one ``submit`` batch, so a trace
        with tied timestamps ingests them together (the nondecreasing-
        ties-allowed contract).  Returns the number of items submitted;
        with ``finish=True`` (default) marks the executor's ingest done
        afterwards.  Stops early once the executor reports
        :meth:`~repro.runtime.executor.PipelineExecutor.should_stop`.
        """
        t0 = time.perf_counter()
        times = self.times
        n = times.size
        i = 0
        try:
            while i < n and not executor.should_stop():
                now = time.perf_counter() - t0
                j = int(np.searchsorted(times, now, side="right"))
                if j <= i:
                    delay = min(self.chunk_seconds, times[i] - now)
                    time.sleep(delay if delay > 0 else self.chunk_seconds)
                    continue
                payload = self.sample_payload(j - i, self._rng)
                executor.submit(payload)
                self.submitted += j - i
                i = j
        finally:
            if finish:
                executor.finish_ingest()
        return self.submitted

    def start(self, executor: PipelineExecutor) -> threading.Thread:
        """Run :meth:`feed` on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.feed, args=(executor,), name="repro-replay", daemon=True
        )
        thread.start()
        return thread


class IngestServer:
    """Hardened JSON-lines TCP ingest for a running executor.

    A thin application layer over
    :class:`~repro.serving.server.JsonLinesServer`: the serving layer
    owns limits, timeouts, structured errors, health, and the graceful
    drain; this class owns the ``submit``/``stats``/``shutdown`` ops and
    the admission decision.  ``serve_forever`` blocks until a
    ``shutdown`` op or :meth:`stop`; :meth:`start` runs it in the
    background and returns once the port is bound (``port`` attribute
    holds the bound port, useful with ``port=0``).
    """

    def __init__(
        self,
        executor: PipelineExecutor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        finish_on_shutdown: bool = True,
        config: ServingConfig | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.executor = executor
        self.finish_on_shutdown = finish_on_shutdown
        self.admission = admission
        self.accepted = 0
        self.overload_rejections = 0
        self._server = JsonLinesServer(
            self._handle,
            host=host,
            port=port,
            config=config,
            name="ingest",
            health_extra=self._health_extra,
            on_drain=self._on_drain,
        )

    # -- delegated server surface -------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def stats(self):
        """The serving layer's :class:`~repro.serving.server.ServerStats`."""
        return self._server.stats

    # -- request handling --------------------------------------------------

    def _health_extra(self) -> dict:
        extra = {
            "in_flight_items": self.executor.in_flight,
            "executor_stopped": self.executor.stopped,
            "accepted_items": self.accepted,
            "overload_rejections": self.overload_rejections,
        }
        if self.admission is not None:
            extra["admission"] = self.admission.stats()
        return extra

    def _submit(self, obj: dict) -> dict:
        items = obj.get("items")
        if not isinstance(items, list) or not items:
            raise SpecError("submit needs a non-empty 'items' array")
        if self.executor.stopped:
            return {
                "ok": False,
                "error": "SimulationError: executor has stopped",
            }
        payload = np.asarray(items)
        if payload.dtype == object:
            raise SpecError(
                "submit items must be scalars or fixed-width rows "
                "(ragged or mixed-type arrays are not ingestible)"
            )
        self.executor.kernels[0].check_payload(payload)
        k = len(payload)
        if self.admission is not None:
            in_flight = self.executor.in_flight
            if not self.admission.admit(k, in_flight):
                self.overload_rejections += 1
                return self.admission.overload_response(k, in_flight)
        self.executor.submit(payload)
        self.accepted += k
        return {"ok": True, "accepted": int(k)}

    def _stats_payload(self) -> dict:
        snap = self.executor.snapshot()
        payload = {
            "op": "stats",
            "elapsed": snap.elapsed,
            "items_ingested": snap.items_ingested,
            "outputs": snap.outputs,
            "in_flight": snap.in_flight,
            "missed_items": snap.missed_items,
            "miss_rate": snap.miss_rate,
            "measured_active_fraction": snap.measured_active_fraction,
            "planned_active_fraction": snap.planned_active_fraction,
            "replans": snap.replans,
            "node_failures": snap.node_failures,
            "node_restarts": snap.node_restarts,
            "queue_depths": [n.queue_depth for n in snap.nodes],
            "serving": self._server.stats.as_dict(),
        }
        if self.admission is not None:
            payload["admission"] = self.admission.stats()
        return payload

    async def _handle(self, obj: dict) -> dict:
        op = obj.get("op")
        if op == "submit":
            return self._submit(obj)
        if op == "stats":
            return self._stats_payload()
        if op == "shutdown":
            return {"op": "shutdown", "ok": True}
        raise SpecError(f"unknown op {op!r}")

    def _on_drain(self) -> None:
        if self.finish_on_shutdown:
            self.executor.finish_ingest()

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the server on this thread until shutdown."""
        self._server.serve_forever()

    def start(self) -> "IngestServer":
        """Serve on a background thread; returns once the port is bound."""
        self._server.start()
        return self

    def stop(self) -> None:
        """Graceful drain and join the server thread (idempotent)."""
        self._server.stop()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the serving thread to exit; True if it did."""
        return self._server.join(timeout=timeout)
