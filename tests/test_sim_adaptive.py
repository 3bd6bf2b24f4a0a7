"""Tests for the adaptive-waits simulator (extension A4)."""

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.spec import PipelineSpec
from repro.errors import SimulationError, SpecError
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator

_METRIC_FIELDS = (
    "n_items",
    "makespan",
    "active_fraction",
    "missed_items",
    "miss_rate",
    "outputs",
    "mean_latency",
    "max_latency",
    "active_time_per_node",
    "queue_hwm_vectors",
    "firings",
    "empty_firings",
    "mean_occupancy",
)


def _run(pipeline, waits, tau0, deadline, n_items, **kw):
    return AdaptiveWaitsSimulator(
        pipeline,
        waits,
        FixedRateArrivals(tau0),
        deadline,
        n_items,
        seed=kw.pop("seed", 0),
        **kw,
    ).run()


class TestFixedPolicyBaseline:
    def test_matches_enforced_simulator(self, blast, calibrated_b):
        """policy='fixed' reproduces the fixed-wait simulator's behaviour."""
        from repro.core.enforced_waits import solve_enforced_waits
        from repro.core.model import RealTimeProblem

        tau0, deadline = 20.0, 2e5
        sol = solve_enforced_waits(
            RealTimeProblem(blast, tau0, deadline), calibrated_b
        )
        fixed = _run(blast, sol.waits, tau0, deadline, 4000, policy="fixed")
        reference = EnforcedWaitsSimulator(
            blast,
            sol.waits,
            FixedRateArrivals(tau0),
            deadline,
            4000,
            seed=0,
        ).run()
        assert fixed.outputs == reference.outputs
        assert fixed.mean_latency == pytest.approx(reference.mean_latency)
        assert fixed.active_fraction == pytest.approx(
            reference.active_fraction, rel=1e-9
        )
        assert (fixed.extra["early_firings"] == 0).all()

    @pytest.mark.parametrize("vector_width", [1, 3, 8])
    @pytest.mark.parametrize(
        "arrivals", ["poisson", "fixed"], ids=["poisson", "fixed-rate"]
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bit_identical_to_enforced(self, vector_width, arrivals, seed):
        """Without triggers the adaptive loop is the enforced loop: every
        metric field agrees bit for bit, trailing empty firings and lane
        occupancy included."""
        pipeline = PipelineSpec.from_arrays(
            [2.0, 5.0, 3.0], [1.0, 0.7, 1.0], vector_width
        )
        waits = np.asarray([3.0, 0.0, 1.0])
        process = (
            PoissonArrivals(1.3) if arrivals == "poisson"
            else FixedRateArrivals(1.3)
        )
        fixed = AdaptiveWaitsSimulator(
            pipeline, waits, process, 40.0, 300, seed=seed, policy="fixed"
        ).run()
        enforced = EnforcedWaitsSimulator(
            pipeline, waits, process, 40.0, 300, seed=seed
        ).run()
        for field in _METRIC_FIELDS:
            a, b = getattr(fixed, field), getattr(enforced, field)
            assert np.array_equal(a, b, equal_nan=True), field


class TestFullVectorPolicy:
    def test_early_fires_on_backlog(self, tiny_pipeline):
        """With waits much longer than needed, the trigger fires early."""
        waits = np.asarray([500.0, 500.0])  # periods 510 / 520
        # Arrivals every 10 cycles fill the width-4 vector every 40.
        eager = _run(
            tiny_pipeline, waits, 10.0, 1e6, 400, policy="full-vector"
        )
        fixed = _run(tiny_pipeline, waits, 10.0, 1e6, 400, policy="fixed")
        assert eager.extra["early_firings"][0] > 0
        assert eager.mean_latency < fixed.mean_latency

    def test_never_misses_more_than_fixed(self, blast, calibrated_b):
        from repro.core.enforced_waits import solve_enforced_waits
        from repro.core.model import RealTimeProblem

        tau0, deadline = 10.0, 3.5e5
        sol = solve_enforced_waits(
            RealTimeProblem(blast, tau0, deadline), calibrated_b
        )
        eager = _run(
            blast, sol.waits, tau0, deadline, 5000, policy="full-vector"
        )
        fixed = _run(blast, sol.waits, tau0, deadline, 5000, policy="fixed")
        assert eager.missed_items <= fixed.missed_items
        assert eager.max_latency <= fixed.max_latency + 1e-9

    def test_conservation(self, tiny_pipeline):
        m = _run(
            tiny_pipeline,
            np.asarray([100.0, 100.0]),
            5.0,
            1e6,
            1000,
            policy="full-vector",
        )
        # Node 1 is a deterministic pass-through, node 0 Bernoulli(0.5).
        assert 350 < m.outputs < 650


class TestSlackPolicy:
    def test_rescues_deadline_pressed_items(self, tiny_pipeline):
        """Long waits + a tight deadline: slack firing prevents misses."""
        waits = np.asarray([400.0, 400.0])  # periods 410 / 420
        deadline = 600.0
        fixed = _run(
            tiny_pipeline, waits, 20.0, deadline, 500, policy="fixed"
        )
        slack = _run(
            tiny_pipeline, waits, 20.0, deadline, 500, policy="slack"
        )
        assert slack.missed_items < fixed.missed_items

    def test_slack_factor_validated(self, tiny_pipeline):
        with pytest.raises(SpecError):
            AdaptiveWaitsSimulator(
                tiny_pipeline,
                np.zeros(2),
                FixedRateArrivals(1.0),
                10.0,
                5,
                slack_factor=0.0,
            )


class TestValidation:
    def test_unknown_policy(self, tiny_pipeline):
        with pytest.raises(SpecError, match="policy"):
            AdaptiveWaitsSimulator(
                tiny_pipeline,
                np.zeros(2),
                FixedRateArrivals(1.0),
                10.0,
                5,
                policy="psychic",
            )

    def test_single_use(self, tiny_pipeline):
        sim = AdaptiveWaitsSimulator(
            tiny_pipeline, np.zeros(2), FixedRateArrivals(1.0), 1e5, 10
        )
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    @pytest.mark.parametrize("policy", ["full-vector", "slack"])
    def test_overlapping_firings_shut_down(self, policy):
        """Nodes whose firings always overlap never all idle at once; the
        run still ends once the arrivals are done and nothing is in
        flight."""
        m = AdaptiveWaitsSimulator(
            PipelineSpec.from_arrays([2, 3], [1, 1], 1),
            np.asarray([1.0, 0.0]),
            FixedRateArrivals(5.0),
            100.0,
            20,
            policy=policy,
            max_events=20_000,
        ).run()
        assert m.outputs == 20

    def test_seed_reproducible(self, tiny_pipeline):
        a = _run(tiny_pipeline, np.full(2, 50.0), 5.0, 1e5, 500, seed=3)
        b = _run(tiny_pipeline, np.full(2, 50.0), 5.0, 1e5, 500, seed=3)
        assert a.outputs == b.outputs
        assert a.mean_latency == b.mean_latency


class TestWatchdog:
    @pytest.mark.parametrize(
        "simulator", [EnforcedWaitsSimulator, AdaptiveWaitsSimulator]
    )
    def test_tail_firing_without_outputs(self, simulator):
        """A tail firing whose gains emit nothing gives the watchdog no
        exit to observe, and the run goes on."""
        m = simulator(
            PipelineSpec.from_arrays([2, 3], [1.0, 0.3], 1),
            np.asarray([1.0, 0.0]),
            FixedRateArrivals(5.0),
            100.0,
            50,
            watchdog=DeadlineWatchdog(100.0),
        ).run()
        assert 0 < m.outputs < 50
        assert m.missed_items == 0
