"""Tests for the parallel campaign runner."""

import os
import time

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
from repro.errors import CampaignError, SpecError
from repro.sim.campaign import run_trials_parallel
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.faults import FaultPlan, InjectedFault
from repro.sim.metrics import SimMetrics
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.runner import run_trials
from repro.simd.backend import get_backend


def _dummy_metrics(seed: int) -> SimMetrics:
    return SimMetrics(
        strategy="dummy",
        n_items=1,
        makespan=1.0,
        active_time_per_node=np.ones(1),
        active_fraction=0.5 + seed * 0.01,
        missed_items=0,
        miss_rate=0.0,
        outputs=1,
        mean_latency=1.0,
        max_latency=1.0,
        queue_hwm_vectors=np.ones(1),
        firings=np.ones(1),
        empty_firings=np.zeros(1),
        mean_occupancy=np.ones(1),
    )


class FastSim:
    """A trivial picklable simulator that finishes instantly."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        return _dummy_metrics(self.seed)


class CrashingSim:
    """Raises inside run() — the classic crashing trial."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        raise RuntimeError(f"boom from seed {self.seed}")


class DyingSim:
    """Kills its worker process outright (no exception to catch)."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        os._exit(17)


class NotMetricsSim:
    """run() returns the wrong type."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> dict:
        return {"not": "metrics"}


@pytest.fixture(scope="module")
def enforced_kwargs():
    from repro.apps.blast.pipeline import blast_pipeline
    from repro.core.enforced_waits import solve_enforced_waits
    from repro.core.model import RealTimeProblem

    blast = blast_pipeline()
    sol = solve_enforced_waits(
        RealTimeProblem(blast, 20.0, 2e5), np.asarray([1.0, 3.0, 9.0, 6.0])
    )
    return dict(
        pipeline=blast,
        waits=sol.waits,
        arrivals=FixedRateArrivals(20.0),
        deadline=2e5,
        n_items=2000,
    )


class TestSerialEquivalence:
    def test_matches_serial_runner(self, enforced_kwargs):
        serial = run_trials(
            lambda seed: EnforcedWaitsSimulator(**enforced_kwargs, seed=seed),
            4,
        )
        parallel_serial = run_trials_parallel(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=1
        )
        assert [m.outputs for m in serial.metrics] == [
            m.outputs for m in parallel_serial.metrics
        ]
        assert serial.mean_active_fraction == pytest.approx(
            parallel_serial.mean_active_fraction, rel=1e-12
        )

    def test_workers_give_identical_results(self, enforced_kwargs):
        one = run_trials_parallel(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=1
        )
        many = run_trials_parallel(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=2
        )
        assert [m.outputs for m in one.metrics] == [
            m.outputs for m in many.metrics
        ]
        assert [m.mean_latency for m in one.metrics] == [
            m.mean_latency for m in many.metrics
        ]

    def test_monolithic_class_supported(self, enforced_kwargs):
        kwargs = dict(
            pipeline=enforced_kwargs["pipeline"],
            block_size=1000,
            arrivals=FixedRateArrivals(20.0),
            deadline=2e5,
            n_items=4000,
        )
        trials = run_trials_parallel(
            MonolithicSimulator, kwargs, [3, 7], workers=2
        )
        assert trials.seeds == (3, 7)
        assert trials.n_trials == 2


class TestCalibrationIntegration:
    def test_workers_do_not_change_calibration(self):
        from repro.apps.blast.pipeline import blast_pipeline
        from repro.core.calibration import calibrate_enforced_b

        p = blast_pipeline()
        kwargs = dict(n_trials=4, n_items=4000)
        serial = calibrate_enforced_b(
            p, np.asarray([5.0]), np.asarray([4e4]), **kwargs
        )
        parallel = calibrate_enforced_b(
            p, np.asarray([5.0]), np.asarray([4e4]), workers=2, **kwargs
        )
        assert (serial.b == parallel.b).all()
        assert serial.n_rounds == parallel.n_rounds


class TestValidation:
    def test_seed_in_kwargs_rejected(self, enforced_kwargs):
        bad = dict(enforced_kwargs, seed=1)
        with pytest.raises(SpecError):
            run_trials_parallel(EnforcedWaitsSimulator, bad, 2)

    def test_empty_seeds_rejected(self, enforced_kwargs):
        with pytest.raises(SpecError):
            run_trials_parallel(EnforcedWaitsSimulator, enforced_kwargs, 0)
        with pytest.raises(SpecError):
            run_trials_parallel(
                EnforcedWaitsSimulator, enforced_kwargs, []
            )

    def test_negative_workers_rejected(self, enforced_kwargs):
        with pytest.raises(SpecError):
            run_trials_parallel(
                EnforcedWaitsSimulator, enforced_kwargs, 2, workers=-1
            )

    def test_non_picklable_kwarg_gives_clear_error(self):
        with pytest.raises(SpecError, match="picklable"):
            run_trials_parallel(
                FastSim, {"callback": lambda x: x}, 2, workers=2
            )

    def test_wrong_metrics_type_names_both_classes(self):
        trials = run_trials_parallel(NotMetricsSim, {}, [0], workers=2)
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert "NotMetricsSim" in outcome.error
        assert "dict" in outcome.error


class TestFailurePaths:
    def test_crashing_simulator_captured(self):
        trials = run_trials_parallel(CrashingSim, {}, [0, 1], workers=2)
        assert trials.n_attempted == 2
        assert trials.n_failed == 2
        assert trials.n_trials == 0
        for seed, outcome in zip((0, 1), trials.outcomes):
            assert outcome.seed == seed
            assert outcome.status == "failed"
            assert outcome.metrics is None
            assert "RuntimeError" in outcome.error
            assert f"boom from seed {seed}" in outcome.error

    def test_worker_death_detected(self):
        trials = run_trials_parallel(DyingSim, {}, [0], workers=2)
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert "died without a result" in outcome.error
        assert "17" in outcome.error

    @pytest.mark.slow
    def test_hanging_trial_times_out(self):
        faults = FaultPlan(hang_seeds=(1,), hang_seconds=60.0)
        trials = run_trials_parallel(
            FastSim, {}, [0, 1, 2], workers=2, timeout=1.0, faults=faults
        )
        assert [o.status for o in trials.outcomes] == [
            "ok",
            "timed-out",
            "ok",
        ]
        assert trials.n_timed_out == 1
        timed_out = trials.outcomes[1]
        assert timed_out.metrics is None
        assert "timeout" in timed_out.error
        assert timed_out.duration >= 1.0

    def test_serial_path_captures_injected_crash(self):
        faults = FaultPlan(crash_seeds=(1,))
        trials = run_trials_parallel(
            FastSim, {}, [0, 1, 2], workers=1, faults=faults
        )
        assert [o.status for o in trials.outcomes] == ["ok", "failed", "ok"]
        assert "InjectedFault" in trials.outcomes[1].error

    def test_transient_crash_recovers_with_retries(self):
        faults = FaultPlan(transient_crashes={2: 2})
        trials = run_trials_parallel(
            FastSim,
            {},
            [0, 1, 2, 3],
            workers=2,
            retries=2,
            backoff=0.0,
            faults=faults,
        )
        assert trials.all_ok
        assert trials.outcomes[2].attempts == 3
        assert all(o.attempts == 1 for i, o in enumerate(trials.outcomes) if i != 2)

    def test_retries_exhausted_records_failure(self):
        faults = FaultPlan(transient_crashes={0: 5})
        trials = run_trials_parallel(
            FastSim, {}, [0], workers=2, retries=1, backoff=0.0, faults=faults
        )
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2

    def test_strict_mode_raises_with_partial_results(self):
        faults = FaultPlan(crash_seeds=(1,))
        with pytest.raises(CampaignError) as excinfo:
            run_trials_parallel(
                FastSim, {}, [0, 1, 2], workers=2, faults=faults, strict=True
            )
        result = excinfo.value.result
        assert result.n_trials == 2
        assert result.n_failed == 1
        assert "seed 1" in str(excinfo.value)

    @pytest.mark.slow
    def test_acceptance_20_seed_campaign_with_injected_faults(self):
        """ISSUE acceptance: 20 seeds, 3 crashes + 1 hang -> 16 ok, in order."""
        faults = FaultPlan(
            crash_seeds=(2, 7, 11), hang_seeds=(15,), hang_seconds=60.0
        )
        trials = run_trials_parallel(
            FastSim, {}, 20, workers=4, timeout=1.5, faults=faults
        )
        assert trials.seeds == tuple(range(20))
        assert trials.n_attempted == 20
        assert trials.n_trials == 16
        assert trials.n_failed == 3
        assert trials.n_timed_out == 1
        assert [o.seed for o in trials.outcomes] == list(range(20))
        for o in trials.outcomes:
            if o.seed in (2, 7, 11):
                assert o.status == "failed" and "InjectedFault" in o.error
            elif o.seed == 15:
                assert o.status == "timed-out"
            else:
                assert o.ok and isinstance(o.metrics, SimMetrics)
        # The statistics run over the 16 survivors.
        assert len(trials.metrics) == 16
        assert trials.mean_active_fraction == pytest.approx(
            np.mean([0.5 + s * 0.01 for s in range(20) if s not in (2, 7, 11, 15)])
        )


class TestFaultPlan:
    def test_crash_seed_raises(self):
        with pytest.raises(InjectedFault, match="seed 3"):
            FaultPlan(crash_seeds=(3,)).apply(3)
        FaultPlan(crash_seeds=(3,)).apply(4)  # other seeds untouched

    def test_transient_threshold(self):
        plan = FaultPlan(transient_crashes={1: 2})
        with pytest.raises(InjectedFault):
            plan.apply(1, attempt=1)
        with pytest.raises(InjectedFault):
            plan.apply(1, attempt=2)
        plan.apply(1, attempt=3)  # recovered

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=0.0)
        with pytest.raises(ValueError):
            FaultPlan(transient_crashes={0: 0})

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan(crash_seeds=(1,), transient_crashes={2: 1})
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_hang_sleeps_in_interruptible_slices(self, monkeypatch):
        """A hang must never block in one long uninterruptible sleep."""
        import repro.sim.faults as faults_mod

        clock = [0.0]
        slices = []

        def fake_monotonic():
            return clock[0]

        def fake_sleep(seconds):
            slices.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(faults_mod.time, "monotonic", fake_monotonic)
        monkeypatch.setattr(faults_mod.time, "sleep", fake_sleep)
        FaultPlan(hang_seeds=(5,), hang_seconds=0.35).apply(5)
        assert sum(slices) == pytest.approx(0.35)
        assert max(slices) <= 0.1  # reapable at every slice boundary
        assert len(slices) >= 4

    def test_hang_interrupt_propagates_at_slice_boundary(self, monkeypatch):
        """An interrupt delivered mid-hang escapes within one slice."""
        import repro.sim.faults as faults_mod

        calls = []

        def interrupting_sleep(seconds):
            calls.append(seconds)
            if len(calls) == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(faults_mod.time, "sleep", interrupting_sleep)
        with pytest.raises(KeyboardInterrupt):
            FaultPlan(hang_seeds=(5,), hang_seconds=3600.0).apply(5)
        assert len(calls) == 2


# -- sharded campaigns -------------------------------------------------------

from repro.sim.campaign import run_trials_sharded  # noqa: E402


class TestShardedCampaign:
    def test_matches_process_per_seed(self, enforced_kwargs):
        baseline = run_trials_parallel(
            EnforcedWaitsSimulator, enforced_kwargs, 6, workers=2
        )
        sharded = run_trials_sharded(
            EnforcedWaitsSimulator, enforced_kwargs, 6, workers=3
        )
        assert sharded.all_ok
        for a, b in zip(sharded.outcomes, baseline.outcomes):
            assert a.seed == b.seed
            assert a.metrics.outputs == b.metrics.outputs
            assert a.metrics.makespan == b.metrics.makespan
            assert a.metrics.active_fraction == b.metrics.active_fraction
            assert np.array_equal(
                a.metrics.queue_hwm_vectors, b.metrics.queue_hwm_vectors
            )

    @pytest.mark.slow
    def test_sharding_beats_process_per_seed(self):
        # Wall-clock floor, set for the compiled backend: a 12-seed
        # campaign sharded over the default workers runs at least 1.2x
        # as fast as one process per seed on two workers.
        from tests.test_sim_differential_fuzz import (
            assert_metrics_bit_identical,
        )

        if not get_backend().compiled:
            pytest.skip("the floor holds for the compiled backend only")
        pipeline = PipelineSpec(
            nodes=(
                NodeSpec("a", 1.0, CensoredPoissonGain(1.2, 4)),
                NodeSpec("b", 0.7, BernoulliGain(0.8)),
                NodeSpec("c", 0.5, DeterministicGain(2)),
            ),
            vector_width=8,
        )
        kwargs = dict(
            pipeline=pipeline,
            waits=np.asarray([3.0, 2.0, 1.5]),
            arrivals=PoissonArrivals(1.4),
            deadline=60.0,
            n_items=2000,
        )
        t0 = time.perf_counter()
        baseline = run_trials_parallel(
            EnforcedWaitsSimulator, kwargs, 12, workers=2
        )
        base_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        sharded = run_trials_sharded(EnforcedWaitsSimulator, kwargs, 12)
        shard_s = time.perf_counter() - t0
        assert baseline.all_ok and sharded.all_ok
        for a, b in zip(sharded.outcomes, baseline.outcomes):
            assert_metrics_bit_identical(a.metrics, b.metrics)
        assert base_s / shard_s >= 1.2

    def test_serial_path_matches_sharded(self, enforced_kwargs):
        serial = run_trials_sharded(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=0
        )
        sharded = run_trials_sharded(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=2
        )
        assert [o.metrics.outputs for o in serial.outcomes] == [
            o.metrics.outputs for o in sharded.outcomes
        ]

    def test_private_arrivals_match_shared(self, enforced_kwargs):
        shared = run_trials_sharded(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=2
        )
        private = run_trials_sharded(
            EnforcedWaitsSimulator,
            enforced_kwargs,
            4,
            workers=2,
            share_arrivals=False,
        )
        for a, b in zip(shared.outcomes, private.outcomes):
            assert a.metrics.outputs == b.metrics.outputs
            assert a.metrics.makespan == b.metrics.makespan

    def test_explicit_seed_list_preserves_order(self):
        result = run_trials_sharded(FastSim, {}, [9, 3, 11], workers=2)
        assert [o.seed for o in result.outcomes] == [9, 3, 11]
        assert result.all_ok

    def test_seed_in_kwargs_rejected(self):
        with pytest.raises(SpecError, match="seeds argument"):
            run_trials_sharded(FastSim, {"seed": 1}, 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SpecError, match="workers"):
            run_trials_sharded(FastSim, {}, 2, workers=-1)

    def test_crash_is_contained_per_seed(self):
        result = run_trials_sharded(CrashingSim, {}, 4, workers=2)
        assert not result.all_ok
        assert len(result.failures) == 4
        for o in result.outcomes:
            assert o.status == "failed"
            assert "boom from seed" in o.error

    def test_dead_shard_seeds_recorded_as_failed(self):
        result = run_trials_sharded(DyingSim, {}, 4, workers=2)
        assert not result.all_ok
        for o in result.outcomes:
            assert o.status == "failed"
            assert "died without a result" in o.error

    def test_strict_raises_with_partial_result_attached(self):
        with pytest.raises(CampaignError) as exc_info:
            run_trials_sharded(CrashingSim, {}, 3, workers=2, strict=True)
        attached = exc_info.value.result
        assert len(attached.outcomes) == 3

    def test_unpicklable_kwargs_fail_early(self):
        with pytest.raises(SpecError, match="picklable"):
            run_trials_sharded(
                FastSim, {"cb": lambda: None}, 4, workers=2
            )
