"""Tests for the live wall-clock executor (repro.runtime.executor).

The acceptance tests at the bottom run real planned pipelines on the
wall clock: a live run must hold zero deadline misses with measured
active fraction within 15% of the solver's predicted ``T(w)``, and an
injected mid-run service shift must trigger a drift re-plan that
restores compliance without restarting the executor.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dataflow.gains import BernoulliGain, DeterministicGain
from repro.errors import SimulationError, SpecError
from repro.runtime.executor import PipelineExecutor
from repro.runtime.kernels import SpinKernel, VectorKernel


def _kernels(n=2, service=0.002, seed=0):
    gains = [DeterministicGain(1)] * n
    return [
        SpinKernel(f"k{i}", g, nominal_service=service, seed=seed + i)
        for i, g in enumerate(gains)
    ]


def _run(executor, n_items=32, batch=8):
    executor.start()
    rng = np.random.default_rng(0)
    for _ in range(0, n_items, batch):
        executor.submit(rng.random(batch))
        time.sleep(0.002)
    executor.finish_ingest()
    return executor.join(timeout=30.0)


class TestExecutorBasics:
    def test_passthrough_delivers_every_item(self):
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=8, deadline=5.0
        )
        report = _run(ex, n_items=32)
        assert report.outputs == 32
        assert report.missed_items == 0
        assert ex.in_flight == 0

    def test_submit_before_start_rejected(self):
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=8, deadline=5.0
        )
        with pytest.raises(SimulationError, match="start"):
            ex.submit(np.zeros(4))

    def test_filter_kernel_drops_items_silently(self):
        kernels = [
            SpinKernel("f", BernoulliGain(0.5), nominal_service=0.002, seed=1),
            SpinKernel("t", DeterministicGain(1), nominal_service=0.002),
        ]
        ex = PipelineExecutor(kernels, [0.0, 0.0], vector_width=8, deadline=5.0)
        report = _run(ex, n_items=64)
        assert 0 < report.outputs < 64
        assert report.missed_items == 0

    def test_wait_validation(self):
        with pytest.raises(SpecError):
            PipelineExecutor(
                _kernels(), [0.0], vector_width=8, deadline=5.0
            )

    def test_swap_waits_length_checked(self):
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=8, deadline=5.0
        )
        with pytest.raises(SpecError):
            ex.swap_waits(np.zeros(3))

    def test_kernel_exception_surfaces_in_join(self):
        class Boom(VectorKernel):
            def fire(self, payload):
                raise RuntimeError("kernel exploded")

        ex = PipelineExecutor(
            [Boom("boom", 0.002)], [0.0], vector_width=8, deadline=5.0
        )
        ex.start()
        ex.submit(np.zeros(4))
        ex.finish_ingest()
        with pytest.raises(SimulationError, match="kernel exploded"):
            ex.join(timeout=10.0)

    def test_snapshot_while_running(self):
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=8, deadline=5.0
        )
        ex.start()
        ex.submit(np.zeros(8))
        snap = ex.snapshot()
        assert snap.items_ingested == 8
        assert len(snap.nodes) == 2
        ex.finish_ingest()
        report = ex.join(timeout=10.0)
        assert report.telemetry.items_ingested == 8


class TestExecutorResilience:
    def test_bounded_queue_with_shed_records_misses(self):
        from repro.resilience.shedding import make_shed_policy

        # Slow tail, fast head, tiny queue: overflow must shed, and shed
        # items must be charged as deadline misses.
        kernels = [
            SpinKernel("h", DeterministicGain(1), nominal_service=0.001),
            SpinKernel("t", DeterministicGain(1), nominal_service=0.02),
        ]
        ex = PipelineExecutor(
            kernels,
            [0.0, 0.0],
            vector_width=4,
            deadline=10.0,
            queue_capacity=8,
            shed_policy=make_shed_policy("drop-newest"),
        )
        ex.start()
        for _ in range(12):
            ex.submit(np.zeros(8))
        ex.finish_ingest()
        report = ex.join(timeout=30.0)
        t = report.telemetry
        assert t.total_shed > 0
        assert t.missed_items == t.total_shed
        assert t.outputs + t.missed_items == t.items_ingested

    def test_overflow_without_policy_raises(self):
        kernels = [
            SpinKernel("h", DeterministicGain(1), nominal_service=0.001),
            SpinKernel("t", DeterministicGain(1), nominal_service=0.05),
        ]
        ex = PipelineExecutor(
            kernels, [0.0, 0.0], vector_width=4, deadline=10.0, queue_capacity=4
        )
        ex.start()
        with pytest.raises(SimulationError):
            for _ in range(30):
                ex.submit(np.zeros(8))
                time.sleep(0.002)
        ex.finish_ingest()

    def test_refused_batch_is_not_counted_in_flight(self):
        # A batch larger than the head queue's capacity is refused
        # whole; the executor must not count it, or join() never drains.
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=4, deadline=10.0,
            queue_capacity=4,
        )
        ex.start()
        ex.submit(np.zeros(4))
        with pytest.raises(SimulationError, match="overflowed"):
            ex.submit(np.zeros(8))
        ex.finish_ingest()
        report = ex.join(timeout=10.0)
        assert ex.in_flight == 0
        assert report.telemetry.items_ingested == 4
        assert report.outputs == 4


class TestAcceptance:
    """ISSUE 5 acceptance: live runs hold the plan's promises."""

    def test_live_blast_holds_af_and_deadline(self):
        """3 real mini-BLAST kernels, Poisson arrivals at the planned
        operating point: zero misses, AF within 15% of predicted T(w)."""
        from repro.runtime.cli import run_live

        plan, report = run_live("blast", seconds=1.5, seed=0)
        assert plan.feasible
        t = report.telemetry
        assert t.outputs > 0
        assert t.missed_items == 0
        assert t.planned_active_fraction == pytest.approx(
            t.measured_active_fraction, rel=0.15
        )
        assert t.latency_max <= plan.problem.deadline

    @pytest.mark.slow
    def test_live_synthetic_holds_af_and_deadline(self):
        """The synthetic chain on the wall clock: zero misses, measured
        AF within 15% of the planned AF."""
        from repro.runtime.cli import run_live

        _, report = run_live("synthetic", seconds=1.5, seed=0)
        t = report.telemetry
        assert t.outputs > 0
        assert t.missed_items == 0
        assert t.planned_active_fraction > 0
        assert abs(
            t.measured_active_fraction / t.planned_active_fraction - 1.0
        ) <= 0.15

    def test_drift_triggers_replan_and_compliance_holds(self):
        """A mid-run service slowdown trips the drift detector; the
        adopted re-plan restores compliance without a restart."""
        from repro.runtime.cli import run_live

        plan, report = run_live(
            "synthetic",
            seconds=3.0,
            seed=0,
            drift_node=1,
            drift_factor=1.8,
            drift_after=0.8,
        )
        adopted = [e for e in report.replan_events if e.adopted]
        assert len(adopted) >= 1
        assert report.missed_items == 0
        # The adopted plan rebased node 1's planned service upward.
        node = report.telemetry.nodes[1]
        assert node.planned_service > plan.pipeline.service_times[1] * 1.2
        # Single uninterrupted run: every ingested item is accounted for.
        t = report.telemetry
        assert t.outputs + t.missed_items <= t.items_ingested
        assert t.in_flight == 0

    @pytest.mark.slow
    def test_second_drift_replan_is_cache_assisted(self):
        """Two identical drift scenarios sharing a PlanCache: the second
        run's re-plan comes from the cache (hit or warm-start)."""
        from repro.planning.cache import PlanCache
        from repro.runtime.cli import run_live

        cache = PlanCache()
        _, first = run_live(
            "synthetic",
            seconds=3.0,
            seed=0,
            drift_node=1,
            drift_factor=1.8,
            drift_after=0.8,
            cache=cache,
        )
        _, second = run_live(
            "synthetic",
            seconds=3.0,
            seed=0,
            drift_node=1,
            drift_factor=1.8,
            drift_after=0.8,
            cache=cache,
        )
        first_adopted = [e for e in first.replan_events if e.adopted]
        second_adopted = [e for e in second.replan_events if e.adopted]
        assert first_adopted and second_adopted
        assert all(e.source in ("hit", "warm") for e in second_adopted)
        assert second.missed_items == 0


class TestSleepOversleep:
    """The deadline-anchored sleep and its measured residual."""

    def _executor(self):
        return PipelineExecutor(
            _kernels(1), [0.0], vector_width=4, deadline=10.0
        )

    def test_sleep_returns_nonnegative_residual(self):
        ex = self._executor()
        residual = ex._sleep(0.02)
        assert residual >= 0.0
        # The whole point of the fix: the residual is bounded by
        # scheduler noise, not by the historical 50 ms slice quantum.
        assert residual < 0.045

    def test_sleep_holds_the_deadline(self):
        ex = self._executor()
        t0 = time.perf_counter()
        ex._sleep(0.08)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.08  # never wakes early
        assert elapsed < 0.08 + 0.045

    def test_stop_interrupts_without_residual(self):
        ex = self._executor()
        ex._stop.set()
        t0 = time.perf_counter()
        residual = ex._sleep(5.0)
        assert time.perf_counter() - t0 < 1.0
        assert residual == 0.0

    def test_zero_and_negative_sleep(self):
        ex = self._executor()
        assert ex._sleep(0.0) >= 0.0
        assert ex._sleep(-1.0) >= 0.0

    def test_report_surfaces_total_oversleep(self):
        ex = PipelineExecutor(
            _kernels(2, service=0.001),
            [0.01, 0.01],
            vector_width=8,
            deadline=10.0,
        )
        report = _run(ex, n_items=16, batch=8)
        total = report.total_oversleep
        assert total >= 0.0
        assert total == pytest.approx(
            sum(n.oversleep_time for n in report.telemetry.nodes)
        )
        # Waits of 10 ms over a handful of periods cannot plausibly
        # accumulate a second of scheduler overshoot; a regression to
        # slice-quantized sleeping would.
        assert total < 1.0


class _FlakyKernel(VectorKernel):
    """Fails its first ``fail_times`` non-empty firings, then works."""

    def __init__(self, name, fail_times=1):
        super().__init__(name, 0.002)
        self.failures_left = fail_times

    def fire(self, payload):
        k = len(payload)
        if k and self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("transient kernel fault")
        return np.ones(k, dtype=np.int64), payload


class TestSupervision:
    def test_public_stop_api(self):
        ex = PipelineExecutor(
            _kernels(), [0.0, 0.0], vector_width=8, deadline=5.0
        )
        assert ex.stopped is False
        assert ex.should_stop() is False
        ex.request_stop()
        assert ex.stopped is True
        assert ex.should_stop() is True

    def test_failed_node_restarts_and_run_completes(self):
        ex = PipelineExecutor(
            [_FlakyKernel("flaky", fail_times=1)],
            [0.0],
            vector_width=8,
            deadline=30.0,
            restart_failed_nodes=True,
        )
        ex.start()
        rng = np.random.default_rng(0)
        for _ in range(4):
            ex.submit(rng.random(8))
            time.sleep(0.005)
        ex.finish_ingest()
        report = ex.join(timeout=30.0)

        assert len(report.node_failures) == 1
        failure = report.node_failures[0]
        assert failure.restarted is True
        assert failure.node == 0
        assert failure.name == "flaky"
        assert "transient kernel fault" in failure.error
        assert report.node_restarts == 1
        # The batch the thread died holding is scored as misses, so
        # item conservation still holds.
        assert failure.items_lost > 0
        assert report.missed_items == failure.items_lost
        assert report.outputs == 32 - failure.items_lost
        assert ex.in_flight == 0

    def test_restart_budget_exhaustion_stops_the_run(self):
        ex = PipelineExecutor(
            [_FlakyKernel("doomed", fail_times=10_000)],
            [0.0],
            vector_width=8,
            deadline=30.0,
            restart_failed_nodes=True,
            max_node_restarts=2,
        )
        ex.start()
        ex.submit(np.zeros(32))
        ex.finish_ingest()
        with pytest.raises(SimulationError, match="transient kernel fault"):
            ex.join(timeout=30.0)
        # Budget of 2 restarts: failures 1 and 2 restarted, 3rd stopped.
        assert ex.node_restarts == 2
        assert len(ex.node_failures) == 3
        assert ex.node_failures[-1].restarted is False
        assert ex.stopped

    def test_supervision_off_by_default(self):
        ex = PipelineExecutor(
            [_FlakyKernel("once", fail_times=1)],
            [0.0],
            vector_width=8,
            deadline=30.0,
        )
        ex.start()
        ex.submit(np.zeros(8))
        ex.finish_ingest()
        with pytest.raises(SimulationError, match="transient kernel fault"):
            ex.join(timeout=30.0)
        assert ex.node_restarts == 0
        assert len(ex.node_failures) == 1
        assert ex.node_failures[0].restarted is False

    def test_snapshot_and_render_surface_failures(self):
        ex = PipelineExecutor(
            [_FlakyKernel("flaky", fail_times=1)],
            [0.0],
            vector_width=8,
            deadline=30.0,
            restart_failed_nodes=True,
        )
        ex.start()
        for _ in range(4):
            ex.submit(np.zeros(8))
            time.sleep(0.005)
        ex.finish_ingest()
        report = ex.join(timeout=30.0)
        assert report.telemetry.node_failures == 1
        assert report.telemetry.node_restarts == 1
        rendered = report.render()
        assert "node failures: 1 (1 recovered by restart)" in rendered

    def test_invalid_restart_budget_rejected(self):
        with pytest.raises(SpecError):
            PipelineExecutor(
                _kernels(),
                [0.0, 0.0],
                vector_width=8,
                deadline=5.0,
                max_node_restarts=-1,
            )
