"""Discrete-event simulator of enforced waits on a dataflow DAG.

A chain is the DAG whose nodes each have one out-edge, so this module
adds no event loop of its own: :class:`DagEnforcedWaitsSimulator` builds
the routing channel table of a validated single-source DAG
(:class:`~repro.dataflow.graph.DataflowGraph`) and runs it on the shared
enforced-waits loop of :class:`~repro.sim.enforced.EnforcedWaitsSimulator`
(and on its closed-form fast path, :mod:`repro.sim.fastpath`).  A
firing's consumed items are replicated along every out-edge, each edge
sampling its own gain distribution, and a fan-in node's queue merges the
pushes of all its predecessors.

**Deterministic fan-in.**  Nodes are indexed in the graph's
deterministic topological order, and a completion's event priority is
its node's index (firing starts rank after every completion).  A fan-in
queue therefore receives same-time pushes in topological-predecessor
order — a total order that the fast path reproduces with a stable merge
by ``(time, predecessor topo index)``.

**RNG stream identity.**  A node with out-degree <= 1 samples on the
chain simulator's stream ``node{i}.gain`` (``i`` its topological index);
sinks sample their node gain on the same stream (the chain-tail
convention).  Only fan-out nodes (out-degree >= 2) use per-edge streams
``edge{i}->{j}.gain`` — so a chain-shaped graph replays the chain
simulator's exact draws and simulates **bit-identically** to it (pinned
by ``tests/test_sim_equivalence.py``).

**Per-sink ledgers.**  Every sink gets its own
:class:`~repro.sim.metrics.LatencyLedger` (``metrics.extra["sinks"]``),
carried on its exit channel, in addition to the global ledger that
scores an item as missed when any output is late at any sink.
"""

from __future__ import annotations

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.graph import DataflowGraph
from repro.errors import SpecError
from repro.sim.enforced import Channel, EnforcedWaitsSimulator
from repro.sim.fastpath import run_enforced_fast as run_dag_fast
from repro.sim.metrics import LatencyLedger, SimMetrics

__all__ = ["DagEnforcedWaitsSimulator"]


class DagEnforcedWaitsSimulator(EnforcedWaitsSimulator):
    """Simulate a dataflow DAG under per-node enforced waits.

    Parameters
    ----------
    graph:
        The application DAG; validated (single source, acyclic,
        connected) on construction.
    waits:
        Enforced waits ``w_i >= 0``: an array in the graph's
        deterministic topological order, or a ``{name: wait}`` mapping
        (typically from
        :meth:`repro.core.dag.DagEnforcedWaitsSolution.waits_by_name`).
    arrivals / deadline / n_items / seed:
        As for the chain simulator.
    charge_empty_firings:
        The paper's accounting convention (see the chain simulator).
    start_offsets:
        Optional per-node first-firing times, topological order.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        waits: np.ndarray | dict,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        charge_empty_firings: bool = True,
        start_offsets: np.ndarray | None = None,
        keep_latency_samples: bool = False,
        max_events: int = 20_000_000,
    ) -> None:
        if not isinstance(graph, DataflowGraph):
            raise SpecError(
                f"graph must be a DataflowGraph, got {type(graph).__name__}"
            )
        graph.validate()
        self.graph = graph
        self.order: tuple[str, ...] = tuple(graph.topological_order())
        pos = {name: i for i, name in enumerate(self.order)}
        if isinstance(waits, dict):
            missing = [name for name in self.order if name not in waits]
            if missing:
                raise SpecError(f"waits mapping is missing nodes {missing}")
            waits = [waits[name] for name in self.order]
        waits, start_offsets = self._check_args(
            len(self.order), waits, deadline, n_items, start_offsets
        )

        self.sink_names: tuple[str, ...] = tuple(
            sorted(graph.sinks(), key=pos.__getitem__)
        )
        self.sink_ledgers: dict[str, LatencyLedger] = {
            name: LatencyLedger(deadline, keep_samples=keep_latency_samples)
            for name in self.sink_names
        }
        # Channels in destination topological order; out-degree <= 1
        # keeps the chain stream name (see the module docstring).
        channels: list[list[Channel]] = []
        for i, name in enumerate(self.order):
            succs = graph.successors(name)
            if not succs:
                chans = [(None, graph.spec(name).gain, f"node{i}.gain",
                          self.sink_ledgers[name])]
            elif len(succs) == 1:
                chans = [(pos[succs[0]], graph.edge_gain(name, succs[0]),
                          f"node{i}.gain", None)]
            else:
                chans = [
                    (pos[s], graph.edge_gain(name, s),
                     f"edge{i}->{pos[s]}.gain", None)
                    for s in succs
                ]
            channels.append(chans)

        self._init_loop(
            list(self.order),
            [float(graph.spec(name).service_time) for name in self.order],
            graph.vector_width,
            channels,
            waits,
            arrivals,
            deadline,
            n_items,
            seed=seed,
            charge_empty_firings=charge_empty_firings,
            start_offsets=start_offsets,
            keep_latency_samples=keep_latency_samples,
            max_events=max_events,
        )

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        metrics = self._run(run_dag_fast)
        metrics.extra["order"] = self.order
        metrics.extra["sinks"] = dict(self.sink_ledgers)
        return metrics
