"""Tests for the live multi-tenant co-scheduler (repro.tenancy.executor).

The tier-1 anchor is single-tenant equivalence: one tenant under
``MultiPipelineExecutor(arbitration="none")`` must be metric-identical
(items in, outputs, misses) to the same plan run through a plain
:class:`~repro.runtime.executor.PipelineExecutor`.  The WRR tests then
check the shared-device ledger: every tenant is served, and summed busy
plus idle time equals elapsed wall time (conservation).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dataflow.gains import DeterministicGain
from repro.errors import SimulationError, SpecError
from repro.runtime.executor import PipelineExecutor
from repro.runtime.kernels import RuntimeWorkload, SpinKernel, plan_runtime
from repro.tenancy.executor import MultiPipelineExecutor, TenantSpec


def _plan(name, *, n_nodes=2, service=0.002, tau0=0.05, deadline=10.0,
          vector_width=8):
    # The generous deadline is deliberate: these tests pin item
    # accounting and ledgers, not deadline compliance, and a loaded CI
    # box can stall a node thread long enough to fake a miss at 2s.
    """A fresh deterministic passthrough plan (fresh kernels each call:
    kernels hold RNG state and are owned by one executor's threads)."""
    kernels = [
        SpinKernel(f"{name}-k{i}", DeterministicGain(1),
                   nominal_service=service)
        for i in range(n_nodes)
    ]
    wl = RuntimeWorkload(
        name=name,
        kernels=kernels,
        sample_payload=lambda n, rng: rng.random(n),
    )
    return plan_runtime(
        wl,
        vector_width=vector_width,
        tau0=tau0,
        deadline=deadline,
        calibrate_b=False,
        n_gain_items=64,
        seed=0,
    )


def _feed(submit, n_items=32, batch=8, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(0, n_items, batch):
        submit(rng.random(batch))
        time.sleep(0.002)


class TestSingleTenantEquivalence:
    def test_metrics_match_plain_executor(self):
        # Same plan shape, same payload stream, deterministic gains:
        # the co-scheduler without arbitration must reproduce the plain
        # executor's item accounting exactly.
        solo = PipelineExecutor.from_plan(_plan("solo"))
        solo.start()
        _feed(solo.submit)
        solo.finish_ingest()
        solo_report = solo.join(timeout=30.0)

        multi = MultiPipelineExecutor(arbitration="none")
        decision = multi.add_tenant(TenantSpec(name="only", plan=_plan("only")))
        assert decision.admitted
        multi.start()
        _feed(lambda payload: multi.submit("only", payload))
        multi.finish_ingest()
        report = multi.join(timeout=30.0)

        mine = report.report("only").telemetry
        theirs = solo_report.telemetry
        assert mine.items_ingested == theirs.items_ingested == 32
        assert mine.outputs == theirs.outputs == 32
        assert mine.missed_items == theirs.missed_items == 0
        assert report.missed("only") == 0
        assert report.device is None
        assert report.conserves()  # trivially, without an arbiter

    def test_gold_single_tenant_unbounded_queues(self):
        multi = MultiPipelineExecutor()
        multi.add_tenant(
            TenantSpec(name="g", plan=_plan("g"), qos="gold")
        )
        # Gold's queues must be unbounded (no shed policy installed).
        for queue in multi.executor("g").queues:
            assert queue.capacity is None


class TestWrrArbitration:
    def test_ledger_conserves_and_serves_every_tenant(self):
        multi = MultiPipelineExecutor(arbitration="wrr")
        for name, qos in (("g", "gold"), ("b", "best-effort")):
            decision = multi.add_tenant(
                TenantSpec(name=name, plan=_plan(name), qos=qos)
            )
            assert decision.admitted, decision.reason
        multi.start()
        for _ in range(0, 32, 8):
            multi.submit("g", np.random.default_rng(1).random(8))
            multi.submit("b", np.random.default_rng(2).random(8))
            time.sleep(0.002)
        multi.finish_ingest()
        report = multi.join(timeout=30.0)

        assert report.report("g").telemetry.outputs == 32
        assert report.report("b").telemetry.outputs == 32
        assert report.device is not None
        busy = {t.name: t.busy_seconds for t in report.device.tenants}
        grants = {t.name: t.grants for t in report.device.tenants}
        assert busy["g"] > 0 and busy["b"] > 0
        assert grants["g"] > 0 and grants["b"] > 0
        # Satellite invariant: sum(busy) + idle == slots * elapsed.
        assert report.conserves(tol=1e-6)
        assert report.qos == {"g": "gold", "b": "best-effort"}

    def test_weights_follow_qos_classes(self):
        multi = MultiPipelineExecutor(arbitration="wrr")
        multi.add_tenant(TenantSpec(name="g", plan=_plan("g"), qos="gold"))
        multi.add_tenant(TenantSpec(name="b", plan=_plan("b"), qos="best-effort"))
        multi.start()
        multi.finish_ingest()
        report = multi.join(timeout=30.0)
        weights = {t.name: t.weight for t in report.device.tenants}
        assert weights == {"g": 4.0, "b": 1.0}


class TestTenantLifecycle:
    def test_evict_drains_and_frees_capacity(self):
        multi = MultiPipelineExecutor().start()
        # Gold at AF near 1 would block a second gold; passthrough plans
        # here are tiny (AF ~ 0.01) so use an explicit small capacity.
        multi.add_tenant(TenantSpec(name="a", plan=_plan("a"), qos="gold"))
        multi.submit("a", np.zeros(8))
        time.sleep(0.05)
        report = multi.evict_tenant("a")
        assert report is not None
        assert report.telemetry.items_ingested == 8
        assert report.telemetry.outputs == 8  # evict waits for the drain
        assert "a" not in multi.tenant_names
        assert multi.admission.record("a") is None
        # The name is reusable after eviction.
        decision = multi.add_tenant(TenantSpec(name="a", plan=_plan("a2")))
        assert decision.admitted

    def test_evict_unknown_returns_none(self):
        multi = MultiPipelineExecutor()
        assert multi.evict_tenant("ghost") is None

    def test_rejected_tenant_leaves_no_state(self):
        multi = MultiPipelineExecutor(capacity=0.004)
        # Plan demand (0.005: both nodes at the head cap) exceeds the
        # tiny capacity: guaranteed admission must reject and leave
        # nothing behind.
        decision = multi.add_tenant(
            TenantSpec(name="big", plan=_plan("big"), qos="gold")
        )
        assert not decision.admitted
        assert decision.reason.startswith("capacity")
        assert "big" not in multi.tenant_names
        assert multi.admission.stats()["active_tenants"] == 0

    def test_duplicate_tenant_raises(self):
        multi = MultiPipelineExecutor()
        multi.add_tenant(TenantSpec(name="a", plan=_plan("a")))
        with pytest.raises(SpecError, match="already present"):
            multi.add_tenant(TenantSpec(name="a", plan=_plan("a-dup")))

    def test_late_join_tenant_is_started(self):
        multi = MultiPipelineExecutor().start()
        multi.add_tenant(TenantSpec(name="late", plan=_plan("late")))
        multi.submit("late", np.zeros(8))
        assert multi.in_flight("late") >= 0
        multi.finish_ingest("late")
        report = multi.join(timeout=30.0)
        assert report.report("late").telemetry.outputs == 8

    def test_join_requires_start(self):
        multi = MultiPipelineExecutor()
        with pytest.raises(SimulationError, match="never started"):
            multi.join()

    def test_double_start_rejected(self):
        multi = MultiPipelineExecutor().start()
        with pytest.raises(SimulationError, match="already started"):
            multi.start()
        multi.finish_ingest()
        multi.join(timeout=10.0)

    def test_invalid_arbitration_rejected(self):
        with pytest.raises(SpecError, match="arbitration"):
            MultiPipelineExecutor(arbitration="lottery")
