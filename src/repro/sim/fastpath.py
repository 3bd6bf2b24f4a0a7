"""Closed-form fast path for the enforced-waits simulators.

Under the paper's idealized timing the enforced-waits schedule is
*oblivious*: node ``i`` fires at the fixed times ``f_0 = offset_i``,
``f_{k+1} = f_k + t_i + w_i`` regardless of queue contents, and every
event-loop interaction reduces to order statistics over those fixed
grids.  This module exploits that to compute the entire simulation with
a handful of array operations per node — no event queue at all — while
remaining **bit-identical** to the event loop (and therefore to
the test oracle ``tests/sim_reference.py``, which the event loop is
already pinned against).

One replay, :func:`run_enforced_fast`, serves chains and DAGs alike: it
walks the simulator's channel table (see :mod:`repro.sim.enforced`) in
topological order, and a chain is simply the table with one channel per
node.

- firing/completion times come from :func:`repro.des.hotloop.firing_schedule`,
  which performs the event loop's float adds in the same order;
- per-firing consumption is the exact integer Lindley recursion
  (:func:`repro.des.hotloop.consumed_scan`) over input-availability
  counts obtained by ``searchsorted`` (arrivals/completions at time
  ``t`` outrank a firing at ``t``, matching event priorities);
- gain draws replay the event loop's generator-call pattern per channel:
  one batched call for split-composable distributions (equal by
  composability), a per-firing loop otherwise — on fresh streams derived
  from the same ``(seed, name)``, so aborting midway never perturbs
  simulator state;
- a fan-in node's input is the merge of its in-channels' output streams.
  Each stream is nondecreasing in time, and the event loop orders
  same-time pushes by the completing node's topological index, so
  concatenating the streams in predecessor order and stable-sorting by
  time reproduces its queue order exactly; the same stable merge orders
  the run's latency ledger across sinks;
- shutdown time is the last consuming completion (when the in-flight
  count hits zero), counted firings are those strictly before it, and
  ledgers/trackers are fed with batch methods documented (and tested) to
  reproduce the sequential float accumulation.

:func:`run_enforced_fast` returns ``None`` whenever the run is not
eligible (GPS timing, telemetry, tracing, faults, watchdog, bounded
queues, a ``python`` backend override) or would exceed the event budget
— the caller then takes the ordinary event path, which raises or records
exactly what it always did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.des.hotloop import consumed_scan, firing_schedule
from repro.des.rng import RngRegistry
from repro.simd.backend import get_backend

__all__ = ["run_enforced_fast"]

#: Per-node firing-count ceiling: beyond this the schedule arrays would
#: dominate memory and the event path is no worse.
_K_MAX = 1 << 26


def _eligible(sim, times: np.ndarray) -> bool:
    if not get_backend().fastpath:
        return False
    if sim._timing_name != "idealized":
        return False
    if sim.trace is not None or sim.collector is not None:
        return False
    if sim._faults is not None or sim._watchdog is not None:
        return False
    if any(q.capacity is not None for q in sim.queues):
        return False
    # Strictly positive service keeps every consuming firing strictly
    # before the shutdown completion; finite periods keep the grids
    # well-defined.
    for t, w in zip(sim._service_f, sim._waits_f):
        if not (t > 0) or not math.isfinite(t + w):
            return False
    if times.size and not np.isfinite(float(times[-1])):
        return False
    return True


@dataclass
class _NodePass:
    """Phase-A results for one node (arrays over its firing grid)."""

    fires: np.ndarray
    comps: np.ndarray
    avail: np.ndarray  # A_k: inputs ever available by firing k
    cum: np.ndarray  # C_k: cumulative items consumed
    per_fire: np.ndarray  # c_k = C_k - C_{k-1}
    consuming: np.ndarray  # c_k > 0
    total: int  # total inputs (all eventually consumed)
    fire_of_item: np.ndarray  # consuming firing index per input item
    n_counted: int = field(default=0)  # firings strictly before shutdown


def _node_schedule(off, t, w, avail_times, v, k_hint):
    """Firing grid extended until all ``avail_times`` items are consumed."""
    total = int(avail_times.size)
    k = int(min(max(16, k_hint), _K_MAX))
    while True:
        fires, comps = firing_schedule(off, t, w, k)
        avail = np.searchsorted(avail_times, fires, side="right").astype(
            np.int64
        )
        cum = consumed_scan(avail, v)
        if total == 0 or cum[-1] >= total:
            return fires, comps, avail, cum
        if k >= _K_MAX:
            return None
        k = min(2 * k, _K_MAX)


def _extend_schedule(nd: _NodePass, off, t, w, tau_end):
    """Grow the firing grid until it reaches ``tau_end`` (same prefix)."""
    k = nd.fires.size
    while nd.fires[k - 1] < tau_end:
        grow = int((tau_end - nd.fires[k - 1]) / (t + w)) + 4
        k = k + max(grow, k)
        if k > _K_MAX:
            return False
        nd.fires, nd.comps = firing_schedule(off, t, w, k)
    return True


def _stable_merge(parts):
    """Merge ``(times, values)`` streams by (time, part order), stably."""
    if len(parts) == 1:
        return parts[0]
    at = np.concatenate([p[0] for p in parts])
    av = np.concatenate([p[1] for p in parts])
    order = np.argsort(at, kind="stable")
    return at[order], av[order]


def run_enforced_fast(sim, times: np.ndarray):
    """Run ``sim`` without its event loop; see the module docstring.

    On success, mutates ``sim``'s trackers, ledgers, queues, active-time
    and last-activity state exactly as the event loop would have, and
    returns the per-queue high-water marks in items.  Returns ``None``
    (with ``sim`` untouched) when ineligible.
    """
    if not _eligible(sim, times):
        return None
    v = sim._v
    n = sim._n_nodes
    # Fresh generators with the event path's exact stream identities:
    # stream(name) depends only on (seed, name), so the draws equal the
    # ones sim's own cached streams would produce, and sim's streams
    # stay pristine for the event path if we abort.
    registry = RngRegistry(sim.rng.seed)
    empty_i64 = np.empty(0, dtype=np.int64)
    empty_f64 = np.empty(0, dtype=np.float64)

    # Per-node input streams (availability times, ids), appended in
    # predecessor topo order; per-queue push events (times, counts) for
    # the high-water marks; and the exit streams.
    inbox: list[list] = [[] for _ in range(n)]
    inbox[0].append(
        (
            np.ascontiguousarray(times, dtype=np.float64),
            np.arange(sim.n_items, dtype=np.int64),
        )
    )
    queue_pushes: list[list] = [[] for _ in range(n)]
    exit_streams: list = []  # (sink ledger or None, out_ids, out_avail)

    nodes: list[_NodePass] = []
    for i in range(n):
        # Every non-source node has a predecessor (the graph is connected
        # with a single source), so its inbox is never empty.
        avail_times, in_ids = _stable_merge(inbox[i])
        inbox[i] = None  # free the merged parts
        t = sim._service_f[i]
        w = sim._waits_f[i]
        off = float(sim.start_offsets[i])
        total = int(avail_times.size)
        t_last = float(avail_times[-1]) if total else off
        k_hint = (t_last - off) / (t + w) + total / v + 16
        sched = _node_schedule(off, t, w, avail_times, v, k_hint)
        if sched is None:
            return None
        fires, comps, avail, cum = sched
        per_fire = np.diff(cum, prepend=np.int64(0))
        consuming = per_fire > 0
        if total:
            fire_of_item = np.searchsorted(
                cum, np.arange(total, dtype=np.int64), side="right"
            )
            item_done = comps[fire_of_item]
        else:
            fire_of_item = empty_i64
            item_done = empty_f64
        k_grid = cum.size
        push_times = comps[:k_grid][consuming]
        for dst, gain, stream, sink in sim._channels[i]:
            if total:
                rng = registry.stream(stream)
                if gain.sample_is_composable:
                    draws = gain.sample(rng, total)
                else:
                    # Replay the event loop's exact per-completion call
                    # pattern for distributions whose draws don't compose.
                    draws = np.empty(total, dtype=np.int64)
                    pos = 0
                    for ck in per_fire[consuming].tolist():
                        draws[pos : pos + ck] = gain.sample(rng, ck)
                        pos += ck
                out_ids = np.repeat(in_ids, draws)
                out_avail = np.repeat(item_done, draws)
            else:
                draws = empty_i64
                out_ids = empty_i64
                out_avail = empty_f64
            if dst is None:
                exit_streams.append((sink, out_ids, out_avail))
                continue
            inbox[dst].append((out_avail, out_ids))
            if total:
                produced = np.bincount(
                    fire_of_item, weights=draws, minlength=k_grid
                ).astype(np.int64)
                queue_pushes[dst].append((push_times, produced[consuming]))
        nodes.append(
            _NodePass(
                fires=fires,
                comps=comps,
                avail=avail,
                cum=cum,
                per_fire=per_fire,
                consuming=consuming,
                total=total,
                fire_of_item=fire_of_item,
            )
        )

    # Shutdown: in-flight hits zero at the last consuming completion
    # anywhere in the graph (items are in flight until they exit or
    # their gain draws to zero — both happen at completions).  The
    # source consumes every arrival, so the max is never empty.
    tau_end = max(
        float(nd.comps[nd.fire_of_item[-1]]) for nd in nodes if nd.total
    )

    # Count executed firings (strictly before tau_end: at equal times
    # the shutdown-setting completion outranks firing events) and check
    # the event budget the event loop would have enforced.
    n_events = 0
    for i, nd in enumerate(nodes):
        if not _extend_schedule(
            nd, float(sim.start_offsets[i]), sim._service_f[i],
            sim._waits_f[i], tau_end,
        ):
            return None
        nd.n_counted = int(np.searchsorted(nd.fires, tau_end, side="left"))
        # fire events (incl. one post-shutdown no-op per node) plus one
        # completion event per consuming firing (empty ones are elided).
        n_events += nd.n_counted + 1 + int(np.count_nonzero(nd.consuming))
    if n_events > sim.max_events:
        return None

    # -- commit (no aborts below: sim state is mutated from here) ----------
    last_activity = 0.0
    for i, nd in enumerate(nodes):
        n_c = nd.n_counted
        if n_c == 0:
            continue
        k_a = nd.cum.size
        per_fire_full = np.zeros(n_c, dtype=np.int64)
        m = min(n_c, k_a)
        per_fire_full[:m] = nd.per_fire[:m]
        comps_c = nd.comps[:n_c]
        charges = comps_c - nd.fires[:n_c]
        if not sim.charge_empty:
            charges = np.where(per_fire_full > 0, charges, 0.0)
        sim.trackers[i].record_firing_batch(per_fire_full, charges)
        sim._active_time[i] = float(
            np.cumsum(np.concatenate(([0.0], charges)))[-1]
        )
        last_activity = max(last_activity, float(comps_c[-1]))
    sim._last_activity = last_activity

    # Ledgers: each exit stream is already in exit order; the global
    # ledger sees the stable merge across sinks by (time, sink topo
    # index), matching completion priorities.
    merged_exits = []
    for sink, out_ids, out_avail in exit_streams:
        if out_ids.size:
            if sink is not None:
                sink.record_exit_stream(times[out_ids], out_avail, ids=out_ids)
            merged_exits.append((out_avail, out_ids))
    if merged_exits:
        exits_t, exits_ids = _stable_merge(merged_exits)
        sim.ledger.record_exit_stream(times[exits_ids], exits_t, ids=exits_ids)

    # Queue high-water marks (in items).  Depths are probed exactly at
    # the event loop's push points: head pushes happen at firing-time
    # drains (before the pop), interior pushes at upstream consuming
    # completions, merged across in-edges (pops at the same timestamp
    # run after the push).
    hwm = np.zeros(n, dtype=np.float64)
    head = nodes[0]
    m = min(head.n_counted, head.cum.size)
    if m:
        popped_before = np.concatenate(([np.int64(0)], head.cum))[:m]
        hwm[0] = max(0, int((head.avail[:m] - popped_before).max()))
    for i in range(1, n):
        parts = queue_pushes[i]
        if not parts:
            continue
        push_t, push_c = _stable_merge(parts)
        nd = nodes[i]
        pushed_cum = np.cumsum(push_c)
        pops_idx = np.searchsorted(nd.fires, push_t, side="left")
        pad = max(0, nd.n_counted - nd.cum.size)
        popped_cum = np.concatenate(
            ([np.int64(0)], nd.cum, np.full(pad, nd.total, dtype=np.int64))
        )
        depths = pushed_cum - popped_cum[pops_idx]
        hwm[i] = max(0, int(depths.max()))

    # The event loop leaves its occupancy statistics on the queue
    # objects, and callers read them there directly (e.g. the capacity
    # calibration in experiments/overload.py probes ``q.max_depth``
    # after an unbounded run).  Mirror them: every item offered to a
    # queue is eventually popped (the run drains), so pushed == popped
    # == the node's input total and the queues end empty.
    for i, (q, nd) in enumerate(zip(sim.queues, nodes)):
        q._pushed += nd.total
        q._popped += nd.total
        depth = int(hwm[i])
        if depth > q._max_depth:
            q._max_depth = depth

    # Terminal bookkeeping the event loop would have left behind.
    sim._cursor = sim.n_items
    sim._arrivals_done = True
    sim._in_flight = 0
    sim._shutdown = True
    return hwm
