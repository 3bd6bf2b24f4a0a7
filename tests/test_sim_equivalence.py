"""Seed-for-seed equivalence of the vectorized simulators vs references.

The vectorized hot path (chunked arrival scheduling, ring-buffer queues,
batched ledger/tracker recording) is an *optimization*, not a model
change: for every seed it must produce bit-identical
:class:`~repro.sim.metrics.SimMetrics` — including telemetry extras — to
the frozen pre-change implementations in :mod:`tests.sim_reference`.

Legitimate divergences, excluded from comparison:

- ``engine.events_processed`` (chunked arrivals schedule fewer events);
- ``wall_time`` fields (nondeterministic);
- trace record *order* within a timestamp (timestamps themselves agree).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arrivals.poisson import PoissonArrivals
from repro.arrivals.trace import TraceArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from tests.sim_reference import (
    ReferenceAdaptiveSimulator,
    ReferenceEnforcedSimulator,
    ReferenceMonolithicSimulator,
)

SEEDS = [0, 1, 7]
# The engine has a single event queue (a binary heap); the axis keeps the
# parametrized case ids of the former heap/calendar matrix stable.
QUEUES = ["heap"]

_SCALAR_FIELDS = (
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
_ARRAY_FIELDS = (
    "active_time_per_node",
    "queue_hwm_vectors",
    "firings",
    "empty_firings",
    "mean_occupancy",
)


def _pipeline(vector_width: int = 8) -> PipelineSpec:
    """A three-node pipeline exercising growth, filtering and fan-out."""
    return PipelineSpec(
        nodes=(
            NodeSpec("a", service_time=1.0, gain=CensoredPoissonGain(1.2, 4)),
            NodeSpec("b", service_time=0.7, gain=BernoulliGain(0.8)),
            NodeSpec("c", service_time=0.5, gain=DeterministicGain(2)),
        ),
        vector_width=vector_width,
    )


#: Per-item miss accounting, which the references key on origin
#: timestamps: tied arrivals are conflated there (the documented caveat).
_PER_ITEM_MISS_FIELDS = ("missed_items", "miss_rate", "items_with_output")


def _assert_bitwise_equal(sim_new, sim_ref, m_new, m_ref, skip=()) -> None:
    for f in _SCALAR_FIELDS:
        if f in skip:
            continue
        a, b = getattr(m_new, f), getattr(m_ref, f)
        if isinstance(a, float) and math.isnan(a) and math.isnan(b):
            continue
        assert a == b, f"{f}: {a!r} != {b!r}"
    for f in _ARRAY_FIELDS:
        a, b = getattr(m_new, f), getattr(m_ref, f)
        assert np.array_equal(a, b, equal_nan=True), f"{f}: {a!r} != {b!r}"

    # Telemetry extras: every per-node counter/statistic, bitwise.
    ta = m_new.extra.get("telemetry")
    tb = m_ref.extra.get("telemetry")
    assert (ta is None) == (tb is None)
    if ta is not None:
        assert len(ta.nodes) == len(tb.nodes)
        for na, nb in zip(ta.nodes, tb.nodes):
            assert na == nb, f"node telemetry differs: {na!r} != {nb!r}"
        # events_processed legitimately differs (fewer arrival events);
        # wall_time is nondeterministic.  sim_time must agree exactly.
        assert ta.engine.sim_time == tb.engine.sim_time

    # Ledger internals, including the order-sensitive Welford moments.
    la, lb = sim_new.ledger, sim_ref.ledger
    assert la.outputs == lb.outputs
    assert la.late_outputs == lb.late_outputs
    if "missed_items" not in skip:
        assert la.missed_items == lb.missed_items
    if "items_with_output" not in skip:
        assert la.items_with_output == lb.items_with_output
    if la.outputs:
        assert la.latency.mean == lb.latency.mean
        assert la.latency.std == lb.latency.std
        assert la.latency.min == lb.latency.min
        assert la.latency.max == lb.latency.max


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine_queue", QUEUES)
def test_enforced_bitwise_equivalent(seed, engine_queue):
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=seed,
        telemetry=True,
    )
    s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine_queue", QUEUES)
def test_adaptive_bitwise_equivalent(seed, engine_queue):
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=seed,
        telemetry=True,
    )
    s1 = AdaptiveWaitsSimulator(_pipeline(), waits, **kw)
    s2 = ReferenceAdaptiveSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


@pytest.mark.parametrize("seed", SEEDS)
def test_monolithic_bitwise_equivalent(seed):
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=80.0,
        n_items=1500,
        seed=seed,
        telemetry=True,
    )
    s1 = MonolithicSimulator(_pipeline(), 16, **kw)
    s2 = ReferenceMonolithicSimulator(_pipeline(), 16, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_enforced_saturated_regime_equivalent():
    """Overloaded pipeline: queues grow, drains span many items at once."""
    waits = np.asarray([0.0, 0.0, 0.0])
    kw = dict(
        arrivals=PoissonArrivals(0.2),  # 5 items per cycle: saturating
        deadline=10.0,
        n_items=800,
        seed=3,
        telemetry=True,
    )
    s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_enforced_gps_timing_equivalent():
    """GPS timing keeps the per-completion path; must still match."""
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=80.0,
        n_items=600,
        seed=5,
        timing="gps",
        telemetry=True,
    )
    s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_enforced_disabled_resilience_kwargs_equivalent():
    """Resilience kwargs in their disabled states must stay bit-identical.

    An empty fault plan, no watchdog, and an unreachable queue bound all
    normalize to the plain fast path; the reference simulator has no such
    kwargs at all, so any residual behavioural coupling shows up here.
    """
    from repro.resilience import RuntimeFaultPlan

    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=2,
        telemetry=True,
    )
    for resilience_kw in (
        dict(runtime_faults=RuntimeFaultPlan(), watchdog=None),
        dict(queue_capacity=10**6),  # bounded but never overflows
        dict(
            runtime_faults=RuntimeFaultPlan(),
            queue_capacity=10**6,
            shed_policy="deadline-aware",
        ),
    ):
        s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw, **resilience_kw)
        s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
        _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_adaptive_disabled_resilience_kwargs_equivalent():
    from repro.resilience import RuntimeFaultPlan

    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=2,
        telemetry=True,
    )
    for resilience_kw in (
        dict(runtime_faults=RuntimeFaultPlan(), watchdog=None),
        dict(queue_capacity=10**6, shed_policy="drop-oldest"),
    ):
        s1 = AdaptiveWaitsSimulator(_pipeline(), waits, **kw, **resilience_kw)
        s2 = ReferenceAdaptiveSimulator(_pipeline(), waits, **kw)
        _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_monolithic_empty_fault_plan_equivalent():
    from repro.resilience import RuntimeFaultPlan

    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=80.0,
        n_items=1500,
        seed=2,
        telemetry=True,
    )
    s1 = MonolithicSimulator(
        _pipeline(), 16, **kw, runtime_faults=RuntimeFaultPlan()
    )
    s2 = ReferenceMonolithicSimulator(_pipeline(), 16, **kw)
    _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def test_adaptive_policies_equivalent():
    """Both early-fire policies must survive the chunked-arrival change."""
    waits = np.asarray([3.0, 2.0, 1.5])
    for policy in ("full-vector", "slack"):
        kw = dict(
            arrivals=PoissonArrivals(1.4),
            deadline=40.0,
            n_items=1000,
            seed=11,
            policy=policy,
            telemetry=True,
        )
        s1 = AdaptiveWaitsSimulator(_pipeline(), waits, **kw)
        s2 = ReferenceAdaptiveSimulator(_pipeline(), waits, **kw)
        _assert_bitwise_equal(s1, s2, s1.run(), s2.run())


def _tied_trace(n: int, seed: int) -> TraceArrivals:
    """Poisson timestamps rounded to multiples of 8: bursts of exact ties.

    The bursts are coarse enough that node 0's queue high-water mark is
    set at a tie, so delivering tied arrivals too early shows up in it.
    """
    rng = np.random.default_rng(seed)
    times = np.round(np.cumsum(rng.exponential(1.4, n)) / 8.0) * 8.0
    assert (np.diff(times) == 0).any()
    return TraceArrivals(times)


@pytest.mark.parametrize("vector_width", [1, 2, 8])
@pytest.mark.parametrize("policy", ["fixed", "full-vector"])
def test_adaptive_tied_trace_matches_reference(policy, vector_width):
    """Trigger-only arrival events against one event per arrival.

    Tied timestamps are where chunked delivery could go wrong: an early
    firing triggered by one arrival must not see the arrivals tied with
    it but queued behind it.  Every field is compared except per-item
    miss accounting, which the reference keys on tied origins.
    """
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=_tied_trace(1200, seed=vector_width),
        deadline=40.0,
        n_items=1200,
        seed=vector_width,
        policy=policy,
        telemetry=True,
    )
    s1 = AdaptiveWaitsSimulator(_pipeline(vector_width), waits, **kw)
    s2 = ReferenceAdaptiveSimulator(_pipeline(vector_width), waits, **kw)
    _assert_bitwise_equal(
        s1, s2, s1.run(), s2.run(), skip=_PER_ITEM_MISS_FIELDS
    )


def test_adaptive_skip_path_engages():
    """Only vector-filling arrivals get events on a default-policy run."""
    n_items = 3000
    sim = AdaptiveWaitsSimulator(
        _pipeline(64),
        np.asarray([3.0, 2.0, 1.5]),
        PoissonArrivals(0.05),
        deadline=40.0,
        n_items=n_items,
        seed=0,
    )
    ref = ReferenceAdaptiveSimulator(
        _pipeline(64),
        np.asarray([3.0, 2.0, 1.5]),
        PoissonArrivals(0.05),
        deadline=40.0,
        n_items=n_items,
        seed=0,
    )
    _assert_bitwise_equal(sim, ref, sim.run(), ref.run())
    assert sim.engine.events_processed < n_items / 4


# -- execution-backend matrix ------------------------------------------------
#
# The closed-form fast path (repro.sim.fastpath) replaces the event loop
# entirely when no observer needs per-event granularity.  Every
# available backend x engine queue x seed must stay bit-identical to
# the frozen reference — and the fast path must *actually* engage
# (events_processed == 0 is the tell; a silently-falling-back backend
# would vacuously pass the equality check).

from repro.simd.backend import available_backends, use_backend  # noqa: E402

BACKENDS = list(available_backends())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine_queue", QUEUES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_enforced_backend_matrix_bitwise_equivalent(
    seed, engine_queue, backend
):
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=seed,
    )
    with use_backend(backend) as be:
        s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
        m1 = s1.run()
        assert (s1.engine.events_processed == 0) == be.fastpath
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, m1, s2.run())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine_queue", QUEUES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_dag_chain_backend_matrix_bitwise_equivalent(
    seed, engine_queue, backend
):
    """A chain-shaped DataflowGraph through the DAG simulator must stay
    bit-identical to the frozen chain reference on every backend —
    the DAG generalization is an extension, not a model change."""
    from repro.dataflow.graph import DataflowGraph
    from repro.sim.dag import DagEnforcedWaitsSimulator

    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=1500,
        seed=seed,
    )
    with use_backend(backend) as be:
        s1 = DagEnforcedWaitsSimulator(
            DataflowGraph.from_pipeline(_pipeline()),
            waits,
            **kw,
        )
        m1 = s1.run()
        assert (s1.engine.events_processed == 0) == be.fastpath
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    _assert_bitwise_equal(s1, s2, m1, s2.run())


@pytest.mark.parametrize("backend", BACKENDS)
def test_dag_chain_backend_matrix_queue_stats_agree(backend):
    from repro.dataflow.graph import DataflowGraph
    from repro.sim.dag import DagEnforcedWaitsSimulator

    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=800,
        seed=1,
    )
    with use_backend(backend):
        s1 = DagEnforcedWaitsSimulator(
            DataflowGraph.from_pipeline(_pipeline()), waits, **kw
        )
        s1.run()
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    s2.run()
    for q1, q2 in zip(s1.queues, s2.queues):
        assert q1.max_depth == q2.max_depth
        assert q1.total_pushed == q2.total_pushed
        assert q1.total_popped == q2.total_popped
        assert len(q1) == len(q2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_enforced_backend_matrix_queue_stats_agree(backend):
    """Queue occupancy stats are read off the queue objects directly
    (e.g. by the overload capacity calibration), so the fast path must
    leave them exactly as the event loop would."""
    waits = np.asarray([3.0, 2.0, 1.5])
    kw = dict(
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=800,
        seed=1,
    )
    with use_backend(backend):
        s1 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
        s1.run()
    s2 = ReferenceEnforcedSimulator(_pipeline(), waits, **kw)
    s2.run()
    for q1, q2 in zip(s1.queues, s2.queues):
        assert q1.max_depth == q2.max_depth
        assert q1.total_pushed == q2.total_pushed
        assert q1.total_popped == q2.total_popped
        assert len(q1) == len(q2)
