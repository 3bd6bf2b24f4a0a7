"""Differential fuzzing: vectorized simulators vs the reference oracle.

Randomized (but seeded — every case is reproducible from its index)
small pipelines are pushed through the production vectorized simulators
and the pre-vectorization per-item reference implementations in
``tests.sim_reference``; the resulting :class:`SimMetrics` must be
**bit-identical** field by field — the same equivalence contract
``tests/test_sim_equivalence.py`` pins on its fixed configurations,
here swept over a randomized configuration space:
pipeline depth 1–4, mixed gain families, vector widths 2–8, fixed-rate
and Poisson arrivals, and waits both generous and tight.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from tests.sim_reference import (
    ReferenceAdaptiveSimulator,
    ReferenceEnforcedSimulator,
)

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


def assert_metrics_bit_identical(a, b) -> None:
    for f in _SCALAR_FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        assert x == y, f"scalar field {f!r} differs: {x!r} != {y!r}"
    for f in _ARRAY_FIELDS:
        assert np.array_equal(
            getattr(a, f), getattr(b, f), equal_nan=True
        ), f"array field {f!r} differs"


def _random_case(rng: np.random.Generator) -> dict:
    """One random small configuration (everything drawn from ``rng``)."""
    n_nodes = int(rng.integers(1, 5))
    nodes = []
    for i in range(n_nodes):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            gain = DeterministicGain(int(rng.integers(0, 4)))
        elif kind == 1:
            gain = BernoulliGain(float(rng.uniform(0.1, 1.0)))
        else:
            gain = CensoredPoissonGain(
                float(rng.uniform(0.2, 2.5)), int(rng.integers(2, 7))
            )
        nodes.append(
            NodeSpec(f"f{i}", float(rng.uniform(0.3, 3.0)), gain)
        )
    pipeline = PipelineSpec(
        tuple(nodes), int(rng.choice([2, 4, 8]))
    )
    waits = rng.uniform(0.0, 4.0, size=n_nodes)
    tau0 = float(rng.uniform(0.5, 4.0))
    arrivals = (
        FixedRateArrivals(tau0)
        if rng.random() < 0.5
        else PoissonArrivals(1.0 / tau0)
    )
    return dict(
        pipeline=pipeline,
        waits=waits,
        sim_kwargs=dict(
            arrivals=arrivals,
            deadline=float(rng.uniform(5.0, 80.0)),
            n_items=int(rng.integers(20, 400)),
            seed=int(rng.integers(0, 2**31)),
        ),
    )


@pytest.mark.parametrize("case_index", range(20))
def test_enforced_matches_reference(case_index):
    case = _random_case(np.random.default_rng(1000 + case_index))
    prod = EnforcedWaitsSimulator(
        case["pipeline"], case["waits"], **case["sim_kwargs"]
    ).run()
    ref = ReferenceEnforcedSimulator(
        case["pipeline"], case["waits"], **case["sim_kwargs"]
    ).run()
    assert_metrics_bit_identical(prod, ref)


@pytest.mark.parametrize("case_index", range(20))
def test_adaptive_matches_reference(case_index):
    case = _random_case(np.random.default_rng(2000 + case_index))
    policy = ("full-vector", "slack", "fixed")[case_index % 3]
    prod = AdaptiveWaitsSimulator(
        case["pipeline"],
        case["waits"],
        policy=policy,
        **case["sim_kwargs"],
    ).run()
    ref = ReferenceAdaptiveSimulator(
        case["pipeline"],
        case["waits"],
        policy=policy,
        **case["sim_kwargs"],
    ).run()
    assert_metrics_bit_identical(prod, ref)


@pytest.mark.slow
@pytest.mark.parametrize("case_index", range(20, 60))
def test_enforced_matches_reference_extended(case_index):
    case = _random_case(np.random.default_rng(1000 + case_index))
    prod = EnforcedWaitsSimulator(
        case["pipeline"], case["waits"], **case["sim_kwargs"]
    ).run()
    ref = ReferenceEnforcedSimulator(
        case["pipeline"], case["waits"], **case["sim_kwargs"]
    ).run()
    assert_metrics_bit_identical(prod, ref)


@pytest.mark.slow
@pytest.mark.parametrize("case_index", range(20, 60))
def test_adaptive_matches_reference_extended(case_index):
    case = _random_case(np.random.default_rng(2000 + case_index))
    policy = ("full-vector", "slack", "fixed")[case_index % 3]
    prod = AdaptiveWaitsSimulator(
        case["pipeline"],
        case["waits"],
        policy=policy,
        **case["sim_kwargs"],
    ).run()
    ref = ReferenceAdaptiveSimulator(
        case["pipeline"],
        case["waits"],
        policy=policy,
        **case["sim_kwargs"],
    ).run()
    assert_metrics_bit_identical(prod, ref)
