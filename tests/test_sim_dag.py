"""Tests for the DAG discrete-event simulator (repro.sim.dag)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SimulationError, SpecError
from repro.sim.dag import DagEnforcedWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.simd.backend import available_backends, use_backend

SCALAR_FIELDS = (
    "strategy",
    "n_items",
    "makespan",
    "active_fraction",
    "missed_items",
    "miss_rate",
    "outputs",
    "mean_latency",
    "max_latency",
)
ARRAY_FIELDS = (
    "active_time_per_node",
    "queue_hwm_vectors",
    "firings",
    "empty_firings",
    "mean_occupancy",
)


def _pipeline() -> PipelineSpec:
    return PipelineSpec(
        nodes=(
            NodeSpec("a", service_time=1.0, gain=CensoredPoissonGain(1.2, 4)),
            NodeSpec("b", service_time=0.7, gain=BernoulliGain(0.8)),
            NodeSpec("c", service_time=0.5, gain=DeterministicGain(2)),
        ),
        vector_width=8,
    )


def _diamond() -> DataflowGraph:
    g = DataflowGraph(16)
    g.add_node(NodeSpec("s", 1.5, DeterministicGain(1)))
    g.add_node(NodeSpec("l", 1.0, BernoulliGain(0.8)))
    g.add_node(NodeSpec("r", 2.0, CensoredPoissonGain(1.3, 6)))
    g.add_node(NodeSpec("t", 1.2, DeterministicGain(1)))
    g.add_edge("s", "l", BernoulliGain(0.6))
    g.add_edge("s", "r", BernoulliGain(0.4))
    g.add_edge("l", "t")
    g.add_edge("r", "t")
    return g


def _two_sinks() -> DataflowGraph:
    """Fan-out from the source straight to two sinks."""
    g = DataflowGraph(8)
    g.add_node(NodeSpec("s", 1.0, DeterministicGain(1)))
    g.add_node(NodeSpec("u", 0.5, DeterministicGain(1)))
    g.add_node(NodeSpec("w", 0.5, DeterministicGain(1)))
    g.add_edge("s", "u", BernoulliGain(0.5))
    g.add_edge("s", "w", BernoulliGain(0.5))
    return g


def _assert_metrics_equal(m1, m2) -> None:
    import math

    for f in SCALAR_FIELDS:
        a, b = getattr(m1, f), getattr(m2, f)
        if isinstance(a, float) and math.isnan(a) and math.isnan(b):
            continue
        assert a == b, f"{f}: {a!r} != {b!r}"
    for f in ARRAY_FIELDS:
        a, b = getattr(m1, f), getattr(m2, f)
        assert np.array_equal(a, b, equal_nan=True), f"{f}: {a!r} != {b!r}"


class TestChainEquivalence:
    """A chain-shaped DataflowGraph must simulate bit-identically to the
    chain simulator — same RNG streams, same event ordering, same
    metrics, on every execution backend."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("backend", list(available_backends()))
    def test_bitwise_equal_to_chain_simulator(self, seed, backend):
        waits = np.asarray([3.0, 2.0, 1.5])
        kw = dict(
            arrivals=PoissonArrivals(1.4),
            deadline=40.0,
            n_items=1200,
            seed=seed,
        )
        with use_backend(backend) as be:
            s1 = DagEnforcedWaitsSimulator(
                DataflowGraph.from_pipeline(_pipeline()), waits, **kw
            )
            m1 = s1.run()
            assert (s1.engine.events_processed == 0) == be.fastpath
            s2 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
            m2 = s2.run()
        _assert_metrics_equal(m1, m2)
        la, lb = s1.ledger, s2.ledger
        assert la.outputs == lb.outputs
        assert la.missed_items == lb.missed_items
        if la.outputs:
            assert la.latency.mean == lb.latency.mean
            assert la.latency.std == lb.latency.std

    def test_chain_tail_is_the_single_sink_ledger(self):
        waits = np.asarray([3.0, 2.0, 1.5])
        sim = DagEnforcedWaitsSimulator(
            DataflowGraph.from_pipeline(_pipeline()),
            waits,
            arrivals=PoissonArrivals(1.4),
            deadline=40.0,
            n_items=600,
            seed=0,
        )
        m = sim.run()
        assert sim.sink_names == ("c",)
        sink = m.extra["sinks"]["c"]
        assert sink.outputs == m.outputs
        assert sink.missed_items == m.missed_items


_DIAMOND_WAITS = [8.0, 14.0, 22.0, 8.0]
_TWO_SINK_WAITS = [4.0, 4.0, 4.0]


class TestDiamond:
    @pytest.mark.parametrize(
        "graph, waits, arrivals, deadline, n_items, seed, extra",
        [
            pytest.param(
                _diamond, _DIAMOND_WAITS, FixedRateArrivals(9.6), 300.0,
                2000, 3, {}, id="diamond-fixed-3",
            ),
            pytest.param(
                _diamond, _DIAMOND_WAITS, PoissonArrivals(9.6), 300.0,
                2000, 0, {}, id="diamond-poisson-0",
            ),
            pytest.param(
                _diamond, _DIAMOND_WAITS, PoissonArrivals(9.6), 300.0,
                2000, 11, {}, id="diamond-poisson-11",
            ),
            pytest.param(
                _diamond, _DIAMOND_WAITS, PoissonArrivals(9.6), 300.0,
                2000, 5, {"charge_empty_firings": False},
                id="diamond-vacations",
            ),
            pytest.param(
                _diamond, _DIAMOND_WAITS, FixedRateArrivals(9.6), 300.0,
                2000, 2,
                {"start_offsets": np.asarray([0.0, 2.5, 5.0, 7.5])},
                id="diamond-staggered",
            ),
            pytest.param(
                _two_sinks, _TWO_SINK_WAITS, FixedRateArrivals(1.0), 100.0,
                1000, 0, {}, id="two-sinks-fixed-0",
            ),
            pytest.param(
                _two_sinks, _TWO_SINK_WAITS, PoissonArrivals(1.0), 100.0,
                1000, 4, {"start_offsets": np.asarray([0.0, 1.5, 3.0])},
                id="two-sinks-poisson-staggered",
            ),
        ],
    )
    def test_fastpath_matches_event_loop(
        self, graph, waits, arrivals, deadline, n_items, seed, extra
    ):
        kw = dict(
            arrivals=arrivals,
            deadline=deadline,
            n_items=n_items,
            seed=seed,
            **extra,
        )
        waits = np.asarray(waits)
        with use_backend("vector") as be:
            assert be.fastpath
            s1 = DagEnforcedWaitsSimulator(graph(), waits, **kw)
            m1 = s1.run()
            assert s1.engine.events_processed == 0
        with use_backend("python"):
            s2 = DagEnforcedWaitsSimulator(graph(), waits, **kw)
            m2 = s2.run()
            assert s2.engine.events_processed > 0
        _assert_metrics_equal(m1, m2)
        for name in s1.sink_names:
            a = m1.extra["sinks"][name]
            b = m2.extra["sinks"][name]
            assert a.outputs == b.outputs
            assert a.missed_items == b.missed_items
            if a.outputs:
                assert a.latency.mean == b.latency.mean
        # The fast path mirrors the event loop's queue statistics,
        # including fan-in queues fed by several predecessors.
        for qa, qb in zip(s1.queues, s2.queues):
            assert qa.max_depth == qb.max_depth, qa.name
            assert qa.total_pushed == qb.total_pushed, qa.name
            assert qa.total_popped == qb.total_popped, qa.name

    def test_planned_point_runs_clean(self):
        """Solve the diamond, then simulate at the planned waits: the
        end-to-end acceptance criterion is zero deadline misses."""
        from repro.core.dag import DagRealTimeProblem, solve_enforced_waits_dag

        sol = solve_enforced_waits_dag(
            DagRealTimeProblem(_diamond(), 0.6, 300.0)
        )
        assert sol.feasible
        sim = DagEnforcedWaitsSimulator(
            _diamond(),
            sol.waits_by_name,
            arrivals=FixedRateArrivals(0.6),
            deadline=300.0,
            n_items=5000,
            seed=0,
        )
        m = sim.run()
        assert m.missed_items == 0
        assert m.outputs > 0
        assert m.extra["order"] == ("s", "l", "r", "t")

    def test_waits_dict_equals_array(self):
        waits = {"s": 8.0, "l": 14.0, "r": 22.0, "t": 8.0}
        arr = np.asarray([8.0, 14.0, 22.0, 8.0])
        kw = dict(
            arrivals=FixedRateArrivals(9.6),
            deadline=300.0,
            n_items=800,
            seed=1,
        )
        m1 = DagEnforcedWaitsSimulator(_diamond(), waits, **kw).run()
        m2 = DagEnforcedWaitsSimulator(_diamond(), arr, **kw).run()
        _assert_metrics_equal(m1, m2)

    def test_multi_sink_ledgers(self):
        """Fan-out to two sinks: each gets its own ledger; the global
        ledger scores every exit."""
        sim = DagEnforcedWaitsSimulator(
            _two_sinks(),
            np.asarray(_TWO_SINK_WAITS),
            arrivals=FixedRateArrivals(1.0),
            deadline=100.0,
            n_items=1000,
            seed=0,
        )
        m = sim.run()
        sinks = m.extra["sinks"]
        assert set(sinks) == {"u", "w"}
        assert sinks["u"].outputs + sinks["w"].outputs == m.outputs
        assert m.outputs > 0


class TestValidation:
    def _kw(self):
        return dict(
            arrivals=FixedRateArrivals(9.6),
            deadline=300.0,
            n_items=10,
        )

    def test_rejects_non_graph(self):
        with pytest.raises(SpecError, match="DataflowGraph"):
            DagEnforcedWaitsSimulator(
                _pipeline(), np.zeros(3), **self._kw()
            )

    def test_rejects_wrong_waits_length(self):
        with pytest.raises(SpecError, match="length 4"):
            DagEnforcedWaitsSimulator(_diamond(), np.zeros(3), **self._kw())

    def test_rejects_negative_waits(self):
        with pytest.raises(SpecError, match=">= 0"):
            DagEnforcedWaitsSimulator(
                _diamond(), np.asarray([1.0, -1.0, 1.0, 1.0]), **self._kw()
            )

    def test_rejects_incomplete_waits_dict(self):
        with pytest.raises(SpecError, match="missing nodes \\['t'\\]"):
            DagEnforcedWaitsSimulator(
                _diamond(),
                {"s": 1.0, "l": 1.0, "r": 1.0},
                **self._kw(),
            )

    def test_rejects_invalid_graph(self):
        g = DataflowGraph(8)
        g.add_node(NodeSpec("a", 1.0, DeterministicGain(1)))
        g.add_node(NodeSpec("b", 1.0, DeterministicGain(1)))
        with pytest.raises(SpecError, match="sources"):
            DagEnforcedWaitsSimulator(g, np.zeros(2), **self._kw())

    def test_single_use(self):
        sim = DagEnforcedWaitsSimulator(
            _diamond(), np.zeros(4), **self._kw()
        )
        sim.run()
        with pytest.raises(SimulationError, match="single-use"):
            sim.run()
