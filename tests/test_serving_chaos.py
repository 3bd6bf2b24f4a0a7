"""Network chaos suite: misbehaving clients vs. the hardened servers.

Every scenario ends the same way: a well-formed ``{"op": "health"}``
probe must still get a healthy answer.  Survival — not graceful
degradation of the *attacker's* experience — is the assertion.
"""

from __future__ import annotations

import pytest

from repro.dataflow.gains import DeterministicGain
from repro.planning.cache import PlanCache
from repro.planning.cli import parse_request
from repro.planning.service import PlanningService
from repro.runtime.executor import PipelineExecutor
from repro.runtime.ingest import IngestServer
from repro.runtime.kernels import SpinKernel
from repro.serving import AdmissionController, JsonLinesServer, ServingConfig
from repro.serving.chaos import (
    disconnect_mid_request,
    flood,
    oversized_frame,
    request_once,
    send_raw_lines,
    slow_loris,
)


PLAN_REQUEST = {
    "pipeline": {
        "service_times": [10.0, 20.0, 15.0],
        "mean_gains": [0.6, 1.5, 1.0],
        "vector_width": 16,
    },
    "tau0": 20.0,
    "deadline": 900.0,
}


def _executor(n=2, service=0.001):
    kernels = [
        SpinKernel(f"k{i}", DeterministicGain(1), nominal_service=service)
        for i in range(n)
    ]
    return PipelineExecutor(
        kernels, [0.0] * n, vector_width=8, deadline=30.0
    )


def _assert_healthy(server) -> dict:
    health = request_once(server.host, server.port, {"op": "health"})
    assert health["ok"] is True
    assert health["ready"] is True
    return health


@pytest.mark.slow
class TestIngestChaos:
    def _serve(self, config=None, admission=None):
        ex = _executor()
        ex.start()
        server = IngestServer(
            ex, port=0, config=config, admission=admission
        ).start()
        return ex, server

    def _teardown(self, ex, server):
        server.stop()
        ex.finish_ingest()
        ex.join(timeout=30.0)

    def test_slow_loris_is_kicked_and_server_survives(self):
        ex, server = self._serve(config=ServingConfig(idle_timeout=0.3))
        try:
            reply = slow_loris(
                server.host,
                server.port,
                byte_interval=0.2,
                max_bytes=10,
            )
            # The server either sent the structured idle kick or just
            # hung up; both leave it serving.
            if reply is not None:
                assert reply["retriable"] is True
            _assert_healthy(server)
        finally:
            self._teardown(ex, server)

    def test_oversized_frame_gets_structured_error(self):
        ex, server = self._serve(
            config=ServingConfig(max_line_bytes=1024, idle_timeout=None)
        )
        try:
            reply = oversized_frame(server.host, server.port, nbytes=64_000)
            assert reply is not None
            assert "exceeds" in reply["error"]
            assert server.stats.oversized_lines == 1
            _assert_healthy(server)
        finally:
            self._teardown(ex, server)

    def test_mid_request_disconnects_do_not_crash(self):
        ex, server = self._serve()
        try:
            for _ in range(8):
                disconnect_mid_request(server.host, server.port)
            health = _assert_healthy(server)
            assert health["stats"]["internal_errors"] == 0
        finally:
            self._teardown(ex, server)

    def test_garbage_lines_then_valid_submit(self):
        ex, server = self._serve()
        try:
            replies = send_raw_lines(
                server.host,
                server.port,
                [
                    b"\x00\xff garbage",
                    b"42",
                    b'{"op": "nope"}',
                    b'{"op": "submit", "items": []}',
                    b'{"op": "submit", "items": [1.0, 2.0]}',
                ],
            )
            assert "JSONDecodeError" in replies[0]["error"]
            assert "SpecError" in replies[1]["error"]
            assert "unknown op" in replies[2]["error"]
            assert "non-empty" in replies[3]["error"]
            assert replies[4] == {"ok": True, "accepted": 2}
            _assert_healthy(server)
        finally:
            self._teardown(ex, server)

    def test_overload_flood_sheds_with_retriable_rejections(self):
        admission = AdmissionController(16)
        # Real (spinning) service time so the pipeline cannot drain as
        # fast as the flood submits — in-flight must hit the budget.
        kernels = [
            SpinKernel(
                f"k{i}",
                DeterministicGain(1),
                nominal_service=0.005,
                spin_seconds=0.005,
            )
            for i in range(2)
        ]
        ex = PipelineExecutor(
            kernels, [0.0, 0.0], vector_width=8, deadline=60.0
        )
        ex.start()
        server = IngestServer(ex, port=0, admission=admission).start()
        try:
            result = flood(
                server.host,
                server.port,
                clients=16,
                requests_per_client=12,
                build_request=lambda ci, ri: {
                    "op": "submit",
                    "items": [float(ci)] * 8,
                },
            )
            assert result.answered == result.sent
            assert result.transport_failures == 0
            assert not result.exceptions
            # The budget must have forced real shedding under this load.
            assert result.overload > 0
            assert admission.stats()["rejections"] > 0
            health = _assert_healthy(server)
            # Conservation: whatever was accepted is in flight or done.
            assert health["accepted_items"] == result.ok * 8
            assert health["in_flight_items"] <= admission.budget
            assert health["stats"]["internal_errors"] == 0
        finally:
            self._teardown(ex, server)

    def test_graceful_drain_under_load(self):
        ex, server = self._serve()
        try:
            reply = request_once(
                server.host,
                server.port,
                {"op": "submit", "items": [1.0] * 8},
            )
            assert reply["ok"] is True
            bye = request_once(server.host, server.port, {"op": "shutdown"})
            assert bye["ok"] is True
            assert server.join(timeout=15.0)
            # finish_on_shutdown drained ingest: join returns the report.
            report = ex.join(timeout=30.0)
            assert report.outputs == 8
        finally:
            server.stop()


@pytest.mark.slow
class TestPlainServerChaos:
    def test_flood_of_mixed_garbage_and_requests(self):
        async def handler(obj):
            return {"ok": True, "n": obj.get("n")}

        server = JsonLinesServer(handler, port=0, name="chaos")
        server.start()
        try:
            result = flood(
                server.host,
                server.port,
                clients=8,
                requests_per_client=16,
                build_request=lambda ci, ri: {"n": ci * 100 + ri},
            )
            assert result.ok == 8 * 16
            assert result.transport_failures == 0
            for _ in range(4):
                disconnect_mid_request(server.host, server.port)
            health = request_once(
                server.host, server.port, {"op": "health"}
            )
            assert health["ok"] is True
            assert health["stats"]["responses"] >= 8 * 16
        finally:
            server.stop()

    def test_planning_flood_is_fully_answered(self):
        # Identical plan requests from many clients at once: single
        # flight and the cache absorb the duplicates, and every request
        # gets a well-formed answer.
        service = PlanningService(PlanCache(), max_concurrency=8)

        async def handler(obj):
            resp = await service.plan(parse_request(obj))
            return {"source": resp.source, "seconds": resp.seconds}

        clients = 32
        server = JsonLinesServer(
            handler,
            port=0,
            config=ServingConfig(max_connections=4 * clients),
            name="plan-flood",
        )
        server.start()
        try:
            result = flood(
                server.host,
                server.port,
                clients=clients,
                requests_per_client=4,
                build_request=lambda ci, ri: dict(PLAN_REQUEST),
                timeout=120.0,
            )
            assert result.answered == result.sent == clients * 4
            assert result.transport_failures == 0, result.exceptions
            assert result.errors == 0
            health = request_once(server.host, server.port, {"op": "health"})
            assert health["stats"]["internal_errors"] == 0
        finally:
            server.stop()


@pytest.mark.slow
class TestTenantChurn:
    """Satellite chaos scenario: rapid admit/submit/evict tenant churn.

    Concurrent clients cycle whole tenant lifecycles on fresh
    connections against a MultiTenantIngestServer.  Afterward the
    server must be healthy, its admission counters must add up
    exactly, and no tenant state may survive the evictions.
    """

    def _serve(self):
        from repro.runtime.kernels import RuntimeWorkload, plan_runtime
        from repro.tenancy.executor import MultiPipelineExecutor
        from repro.tenancy.server import MultiTenantIngestServer

        def plan_factory(name, tau0, deadline):
            kernels = [
                SpinKernel(
                    f"{name}-k{i}",
                    DeterministicGain(1),
                    nominal_service=0.001,
                )
                for i in range(2)
            ]
            wl = RuntimeWorkload(
                name=name,
                kernels=kernels,
                sample_payload=lambda n, rng: rng.random(n),
            )
            return plan_runtime(
                wl,
                vector_width=8,
                tau0=tau0 or 0.05,
                deadline=deadline or 2.0,
                calibrate_b=False,
                n_gain_items=64,
                seed=0,
            )

        multi = MultiPipelineExecutor(arbitration="wrr").start()
        server = MultiTenantIngestServer(multi, plan_factory).start()
        return multi, server

    def test_churn_leaves_no_state_and_counters_add_up(self):
        from repro.serving.chaos import tenant_churn

        multi, server = self._serve()
        try:
            result = tenant_churn(
                server.host,
                server.port,
                clients=4,
                cycles=3,
                build_admit=lambda ci, cy: {
                    "op": "admit",
                    "tenant": f"t{ci}-{cy}",
                    "qos": ("gold", "best-effort")[ci % 2],
                },
                build_submit=lambda ci, cy, tenant: {
                    "op": "submit",
                    "tenant": tenant,
                    "items": [[0.5]] * 8,
                },
                submits_per_cycle=2,
            )
            # Chaos may reject (capacity, budget) but must never break:
            # no transport failures, no unstructured errors, and every
            # admitted tenant evicted cleanly (no state leaks).
            assert result.cycles == 12
            assert result.transport_failures == 0, result.exceptions
            assert result.errors == 0
            assert result.evict_failures == 0
            assert result.evicted == result.admitted > 0
            assert result.admitted + result.admit_rejected == result.cycles

            health = request_once(
                server.host, server.port, {"op": "health"}
            )
            assert health["ok"] is True
            assert health["active_tenants"] == 0
            admission = health["admission"]
            assert admission["active_tenants"] == 0
            assert admission["total_demand"] == 0.0
            assert admission["admitted_tenants"] == result.admitted
            assert admission["evicted_tenants"] == result.evicted
            # Rejections observed by clients match the server's count.
            assert admission["rejected_tenants"] == result.admit_rejected

            tenants = request_once(
                server.host, server.port, {"op": "tenants"}
            )
            assert tenants["tenants"] == []
            stats = request_once(
                server.host, server.port, {"op": "stats"}
            )
            assert stats["tenants"] == {}
            # Arbiter ledgers were released with their tenants.
            assert stats.get("device", {}) == {}
        finally:
            server.stop()
            server.join(timeout=30.0)
            multi.finish_ingest()
            multi.join(timeout=30.0)
