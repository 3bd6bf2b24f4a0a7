"""Tests for the enforced-waits discrete-event simulator."""

import math

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.trace import TraceArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.trace import TraceRecorder
from repro.errors import SimulationError, SpecError
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.enforced import EnforcedWaitsSimulator


class TestDeterministicPipeline:
    """Pass-through pipeline: everything is exactly predictable."""

    def test_all_items_exit_once(self, passthrough_pipeline):
        sim = EnforcedWaitsSimulator(
            passthrough_pipeline,
            waits=np.zeros(3),
            arrivals=FixedRateArrivals(2.0),
            deadline=1e6,
            n_items=100,
        )
        m = sim.run()
        assert m.outputs == 100
        assert m.missed_items == 0

    def test_latency_of_single_item(self, passthrough_pipeline):
        # One item at t=0; nodes fire at t=0 (empty... item arrives at 0
        # with priority -1 so the t=0 firing consumes it).
        sim = EnforcedWaitsSimulator(
            passthrough_pipeline,
            waits=np.zeros(3),
            arrivals=TraceArrivals([0.0]),
            deadline=1e6,
            n_items=1,
        )
        m = sim.run()
        # Service times 5, 7, 3: node0 fires 0-5; node1's next firing
        # after its empty t=0 firing is t=7 (period 7), consuming at 7,
        # done 14; node2 fires at 15 (period 3, firings 0,3,6,9,12,15),
        # done 18.
        assert m.outputs == 1
        assert m.mean_latency == pytest.approx(18.0)

    def test_active_fraction_matches_objective(self, passthrough_pipeline):
        waits = np.asarray([5.0, 3.0, 7.0])
        sim = EnforcedWaitsSimulator(
            passthrough_pipeline,
            waits=waits,
            arrivals=FixedRateArrivals(5.0),
            deadline=1e6,
            n_items=2000,
        )
        m = sim.run()
        t = passthrough_pipeline.service_times
        predicted = float(np.mean(t / (t + waits)))
        assert m.active_fraction == pytest.approx(predicted, rel=0.02)

    def test_firing_periods_respected(self, passthrough_pipeline):
        trace = TraceRecorder(kinds={"fire"})
        sim = EnforcedWaitsSimulator(
            passthrough_pipeline,
            waits=np.asarray([2.0, 0.0, 0.0]),
            arrivals=FixedRateArrivals(10.0),
            deadline=1e6,
            n_items=20,
            trace=trace,
        )
        sim.run()
        fires = [r.time for r in trace.of_kind("fire") if r.subject == "p0"]
        gaps = np.diff(fires)
        assert np.allclose(gaps, 7.0)  # t0 + w0 = 5 + 2


class TestStochasticPipeline:
    def test_blast_conservation(self, blast, calibrated_b):
        from repro.core.enforced_waits import solve_enforced_waits
        from repro.core.model import RealTimeProblem

        sol = solve_enforced_waits(
            RealTimeProblem(blast, 20.0, 2e5), calibrated_b
        )
        sim = EnforcedWaitsSimulator(
            blast, sol.waits, FixedRateArrivals(20.0), 2e5, 3000, seed=3
        )
        m = sim.run()
        # Expected outputs ~ n * G3 * g3(=1) ~ 3000*0.0242*... node 3 is
        # Bernoulli(1.0) so outputs = inputs to node 3 that pass stage 2.
        expected = 3000 * blast.total_gains[3]
        assert m.outputs == pytest.approx(expected, rel=0.35)
        assert m.miss_rate <= 0.01

    def test_seed_reproducibility(self, blast, calibrated_b):
        def run(seed):
            sim = EnforcedWaitsSimulator(
                blast,
                np.full(4, 100.0),
                FixedRateArrivals(20.0),
                1e6,
                500,
                seed=seed,
            )
            return sim.run()

        a, b_run = run(7), run(7)
        assert a.outputs == b_run.outputs
        assert a.active_fraction == b_run.active_fraction
        assert a.mean_latency == b_run.mean_latency
        c = run(8)
        assert (a.outputs != c.outputs) or (a.mean_latency != c.mean_latency)

    def test_occupancy_improves_with_waits(self, blast):
        def mean_occ(waits0):
            sim = EnforcedWaitsSimulator(
                blast,
                np.asarray([waits0, 0.0, 0.0, 0.0]),
                FixedRateArrivals(20.0),
                1e7,
                2000,
                seed=0,
            )
            return sim.run().mean_occupancy[0]

        assert mean_occ(2000.0) > mean_occ(0.0)

    def test_vacation_policy_reduces_active(self, blast):
        kwargs = dict(
            waits=np.full(4, 500.0),
            arrivals=FixedRateArrivals(50.0),
            deadline=1e7,
            n_items=1000,
            seed=0,
        )
        charged = EnforcedWaitsSimulator(
            blast, charge_empty_firings=True, **kwargs
        ).run()
        vacation = EnforcedWaitsSimulator(
            blast, charge_empty_firings=False, **kwargs
        ).run()
        assert vacation.active_fraction < charged.active_fraction
        # Same dynamics otherwise: identical outputs and latencies.
        assert vacation.outputs == charged.outputs
        assert vacation.mean_latency == charged.mean_latency


class TestTimingModels:
    def test_gps_capped_equals_idealized(self, blast, calibrated_b):
        kwargs = dict(
            waits=np.full(4, 300.0),
            arrivals=FixedRateArrivals(20.0),
            deadline=1e7,
            n_items=800,
            seed=4,
        )
        ideal = EnforcedWaitsSimulator(blast, timing="idealized", **kwargs).run()
        capped = EnforcedWaitsSimulator(blast, timing="gps-capped", **kwargs).run()
        # Capped GPS drains every job at exactly rate 1/N, so firing
        # durations equal t_i; tiny float drift in the fluid integrator
        # can still reorder same-instant events, so the match is
        # statistical rather than bitwise.
        assert capped.active_fraction == pytest.approx(
            ideal.active_fraction, rel=0.02
        )
        assert capped.mean_latency == pytest.approx(ideal.mean_latency, rel=0.05)
        assert capped.outputs == pytest.approx(ideal.outputs, rel=0.02)

    def test_gps_never_slower(self, blast):
        kwargs = dict(
            waits=np.full(4, 300.0),
            arrivals=FixedRateArrivals(20.0),
            deadline=1e7,
            n_items=800,
            seed=4,
        )
        ideal = EnforcedWaitsSimulator(blast, timing="idealized", **kwargs).run()
        gps = EnforcedWaitsSimulator(blast, timing="gps", **kwargs).run()
        # Work-conserving sharing only speeds firings up.
        assert gps.active_fraction <= ideal.active_fraction + 1e-9
        assert gps.max_latency <= ideal.max_latency + 1e-9

    def test_gps_watchdog_run_shuts_down_while_degraded(self):
        """A GPS run that drains while the watchdog is degraded must
        still shut down: with no exits left nothing restores the waits,
        and zeroed waits would keep an empty GPS firing active forever."""
        pipeline = PipelineSpec(
            nodes=(
                NodeSpec("a", 1.0, CensoredPoissonGain(1.2, 4)),
                NodeSpec("b", 1.0, BernoulliGain(0.8)),
                NodeSpec("c", 1.0, DeterministicGain(2)),
            ),
            vector_width=1,
        )
        sim = EnforcedWaitsSimulator(
            pipeline,
            np.asarray([3.0, 1.0, 0.0]),
            FixedRateArrivals(0.5),
            20.0,
            400,
            timing="gps",
            watchdog=DeadlineWatchdog(20.0),
            max_events=200_000,
        )
        m = sim.run()
        res = m.extra["resilience"]
        assert res["degradations"] >= 1
        assert res["degraded_intervals"][-1][1] == m.makespan
        assert sim._in_flight == 0 and not sim._inflight_firings
        assert m.outputs > 0

    def test_unknown_timing_rejected(self, blast):
        with pytest.raises(SpecError):
            EnforcedWaitsSimulator(
                blast,
                np.zeros(4),
                FixedRateArrivals(10.0),
                1e5,
                10,
                timing="quantum",
            )


class TestValidation:
    def test_waits_shape(self, blast):
        with pytest.raises(SpecError):
            EnforcedWaitsSimulator(
                blast, np.zeros(3), FixedRateArrivals(10.0), 1e5, 10
            )

    def test_negative_waits(self, blast):
        with pytest.raises(SpecError):
            EnforcedWaitsSimulator(
                blast, np.asarray([-1.0, 0, 0, 0]), FixedRateArrivals(10.0), 1e5, 10
            )

    def test_single_use(self, tiny_pipeline):
        sim = EnforcedWaitsSimulator(
            tiny_pipeline, np.zeros(2), FixedRateArrivals(10.0), 1e5, 10
        )
        sim.run()
        with pytest.raises(SimulationError, match="single-use"):
            sim.run()

    def test_bad_deadline_and_items(self, tiny_pipeline):
        with pytest.raises(SpecError):
            EnforcedWaitsSimulator(
                tiny_pipeline, np.zeros(2), FixedRateArrivals(1.0), 0.0, 10
            )
        with pytest.raises(SpecError):
            EnforcedWaitsSimulator(
                tiny_pipeline, np.zeros(2), FixedRateArrivals(1.0), 1.0, 0
            )
