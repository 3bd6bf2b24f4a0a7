"""Spans around calls into each layer's public functions.

The tracer patches the program's classes and module functions for the
duration of a traced run and restores them afterwards; nothing in
``src/`` knows it exists.  Each call records a span (name, start, end,
parent span, thread, item id).  Spans stay in memory until the run ends.
A span's *self time* is its duration minus the time its child spans
cover; per-layer metrics are counts and summed self times per name.

Names are the per-layer metric stems of the benchmark (see README.md).
Calls made from a live executor's node threads are attributed to that
node (``runtime.n<index>.<op>``); the same functions called from the main
thread belong to the simulator layers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import defaultdict

_NODE_THREAD = "repro-node-"


def node_of_current_thread() -> str | None:
    """``n<index>`` when called from a live executor node thread.

    Nodes are named by position, not kernel name, so the live and the
    served chain share one set of per-node metric names.
    """
    name = threading.current_thread().name
    if not name.startswith(_NODE_THREAD):
        return None
    return "n" + name[len(_NODE_THREAD):].split("-", 1)[0]


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, thread, item]
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, fn, name_of, *, item_of=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``name_of(args)`` names the span before the call (None: no span,
        the time stays in the caller's self time); ``after(args, result,
        name)`` may rename it once the result is known.  ``item_of(args, result)`` gives
        the item or request id carried by the call.
        """
        tracer = self

        def _open(args):
            name = name_of(args)
            if name is None:
                return None
            with tracer._lock:
                idx = len(tracer.spans)
                stack = tracer._stack()
                parent = stack[-1] if stack else -1
                tracer.spans.append(
                    [name, time.perf_counter(), None, parent,
                     threading.get_ident(), None]
                )
            stack.append(idx)
            return idx

        def _close(idx, args, result):
            end = time.perf_counter()
            tracer._stack().pop()
            span = tracer.spans[idx]
            span[2] = end
            if after is not None:
                span[0] = after(args, result, span[0])
            if item_of is not None:
                span[5] = item_of(args, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                idx = _open(args)
                if idx is None:
                    return await fn(*args, **kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _close(idx, args, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = _open(args)
            if idx is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _close(idx, args, result)

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, summed self seconds)} over closed spans."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if end is not None and parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, (name, start, end, _, _, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child.get(idx, 0.0)
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, prefix: str) -> float:
        """Summed wall duration of closed spans whose name starts with ``prefix``."""
        return sum(
            end - start
            for name, start, end, *_ in self.spans
            if end is not None and name.startswith(prefix)
        )

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, thread, item in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                            "item": item,
                        }
                    )
                    + "\n"
                )


# -- the patch set -------------------------------------------------------------


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _main_only(name):
    return lambda args: None if node_of_current_thread() else name


def _per_node(op):
    def name_of(args):
        node = node_of_current_thread()
        return None if node is None else f"runtime.{node}.{op}"

    return name_of


def _first_id(ids):
    return int(ids[0]) if ids is not None and len(ids) else None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced boundary for the duration of the block."""
    from repro.core import calibration
    from repro.core.enforced_waits import EnforcedWaitsProblem
    from repro.control.env import PipelineControlEnv
    from repro.dataflow.gains import GainDistribution
    from repro.dataflow.queues import ItemQueue
    from repro.des.engine import Engine
    from repro.planning import warmstart
    from repro.runtime.calibration import OnlineCalibrator
    from repro.runtime.executor import PipelineExecutor
    from repro.runtime.ingest import IngestServer
    from repro.runtime.kernels import VectorKernel
    from repro.runtime.queues import LiveQueue
    from repro.sim import dag, enforced
    from repro.sim.adaptive import AdaptiveWaitsSimulator
    from repro.sim.metrics import LatencyLedger
    from repro.tenancy.sim import MultiTenantSimulator

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper_of):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(getattr(owner, attr)))

    t = tracer

    # planning
    def plan_after(args, outcome, name):
        return f"planning.solve_plan.{outcome.source}" if outcome is not None else name

    patch(warmstart, "solve_plan",
          lambda fn: t.wrap(fn, lambda a: "planning.solve_plan.error", after=plan_after))
    patch(warmstart, "warm_start_solve",
          lambda fn: t.wrap(fn, lambda a: "planning.warm_start.rejected",
                            after=lambda a, r, n: n if r is None else "planning.warm_start.accepted"))
    # solvers
    patch(EnforcedWaitsProblem, "solve", lambda fn: t.wrap(fn, lambda a: "solvers.solve"))

    # core calibration campaign
    def calibrate_after(args, result, name):
        if result is not None:
            t.count("core.calibrate.rounds", result.n_rounds)
        return name

    def calibrate_wrapper(fn):
        wrapped = t.wrap(fn, lambda a: "core.calibrate", after=calibrate_after)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            before = t.counters["sim.fast.runs"] + t.counters["sim.event.runs"]
            try:
                return wrapped(*args, **kwargs)
            finally:
                t.count(
                    "core.calibrate.trials",
                    t.counters["sim.fast.runs"] + t.counters["sim.event.runs"] - before,
                )

        return counting

    patch(calibration, "calibrate_enforced_b", calibrate_wrapper)

    # sim fast path (closed form) vs event path
    def fast_after(args, result, name):
        if result is None:
            t.count("sim.event.runs")
            return "sim.fast.declined"
        t.count("sim.fast.runs")
        t.count("sim.fast.items", args[0].n_items)
        return name

    patch(enforced, "run_enforced_fast",
          lambda fn: t.wrap(fn, lambda a: "sim.fast", after=fast_after))
    patch(dag, "run_dag_fast",
          lambda fn: t.wrap(fn, lambda a: "sim.fast", after=fast_after))
    patch(enforced.EnforcedWaitsSimulator, "run", lambda fn: t.wrap(fn, lambda a: "sim.enforced"))
    patch(dag.DagEnforcedWaitsSimulator, "run", lambda fn: t.wrap(fn, lambda a: "sim.dag"))
    patch(AdaptiveWaitsSimulator, "run", lambda fn: t.wrap(fn, lambda a: "sim.adaptive"))
    patch(PipelineControlEnv, "step", lambda fn: t.wrap(fn, lambda a: "control.env.step"))
    patch(MultiTenantSimulator, "run", lambda fn: t.wrap(fn, lambda a: "tenancy.sim"))

    def engine_wrapper(fn):
        wrapped = t.wrap(fn, lambda a: "des.engine")

        @functools.wraps(fn)
        def counting(self, *args, **kwargs):
            before = self.events_processed
            try:
                return wrapped(self, *args, **kwargs)
            finally:
                t.count("des.engine.events", self.events_processed - before)

        return counting

    patch(Engine, "run", engine_wrapper)

    # dataflow (simulator side)
    patch(ItemQueue, "push_many",
          lambda fn: t.wrap(fn, _main_only("dataflow.ItemQueue.push_many")))
    patch(ItemQueue, "pop_up_to",
          lambda fn: t.wrap(fn, _main_only("dataflow.ItemQueue.pop_up_to")))
    for cls in _all_subclasses(GainDistribution):
        if "sample" in cls.__dict__:
            patch(cls, "sample",
                  lambda fn: t.wrap(fn, _main_only("dataflow.GainDistribution.sample")))

    def ledger_name(args):
        node = node_of_current_thread()
        return "sim.LatencyLedger.record_exits" if node is None else f"runtime.{node}.record_exits"

    patch(LatencyLedger, "record_exits", lambda fn: t.wrap(fn, ledger_name))

    # live runtime (node threads)
    for cls in _all_subclasses(VectorKernel):
        if "fire" in cls.__dict__:
            patch(cls, "fire", lambda fn: t.wrap(fn, _per_node("fire")))
    patch(LiveQueue, "push",
          lambda fn: t.wrap(fn, _per_node("push"), item_of=lambda a, r: _first_id(a[1])))
    patch(LiveQueue, "pop_up_to",
          lambda fn: t.wrap(fn, _per_node("pop_up_to"), item_of=lambda a, r: _first_id(r[0]) if r else None))
    patch(OnlineCalibrator, "observe", lambda fn: t.wrap(fn, _per_node("observe")))
    patch(PipelineExecutor, "submit",
          lambda fn: t.wrap(fn, lambda a: "runtime.submit", item_of=lambda a, r: _first_id(r)))

    # serving
    patch(IngestServer, "_handle", lambda fn: t.wrap(fn, lambda a: "serving.handle"))

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
