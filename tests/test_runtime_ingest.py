"""Tests for live ingest (repro.runtime.ingest): replay + TCP server."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.dataflow.gains import DeterministicGain
from repro.runtime.executor import PipelineExecutor
from repro.runtime.ingest import IngestServer, ReplaySource
from repro.runtime.kernels import SpinKernel


def _executor(n=2, service=0.002):
    kernels = [
        SpinKernel(f"k{i}", DeterministicGain(1), nominal_service=service)
        for i in range(n)
    ]
    return PipelineExecutor(
        kernels, [0.0] * n, vector_width=8, deadline=10.0
    )


class TestReplaySource:
    def test_replays_into_executor(self):
        ex = _executor()
        source = ReplaySource(
            np.linspace(0.0, 0.05, 20),
            lambda n, rng: np.zeros(n),
        )
        ex.start()
        submitted = source.feed(ex)
        report = ex.join(timeout=20.0)
        assert submitted == 20
        assert report.outputs == 20
        assert report.missed_items == 0

    def test_n_items_truncates_array(self):
        source = ReplaySource(
            np.linspace(0.0, 1.0, 10),
            lambda n, rng: np.zeros(n),
            n_items=3,
        )
        assert len(source) == 3

    def test_start_runs_on_background_thread(self):
        ex = _executor()
        source = ReplaySource(
            np.zeros(5), lambda n, rng: np.zeros(n)
        )
        ex.start()
        thread = source.start(ex)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        report = ex.join(timeout=10.0)
        assert report.outputs == 5


class _Client:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.file = self.sock.makefile("rwb")

    def request(self, obj) -> dict:
        self.file.write((json.dumps(obj) + "\n").encode())
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.mark.slow
class TestIngestServer:
    def test_submit_stats_shutdown_roundtrip(self):
        ex = _executor()
        ex.start()
        server = IngestServer(ex, port=0).start()
        client = _Client(server.host, server.port)
        try:
            reply = client.request(
                {"op": "submit", "items": [0.0, 1.0, 2.0]}
            )
            assert reply == {"ok": True, "accepted": 3}

            stats = client.request({"op": "stats"})
            assert stats["items_ingested"] == 3

            bad = client.request({"op": "warp"})
            assert "error" in bad

            bye = client.request({"op": "shutdown"})
            assert bye["ok"] is True
        finally:
            client.close()
        server.stop()
        report = ex.join(timeout=20.0)
        assert report.outputs == 3
        assert report.missed_items == 0

    def test_stop_without_shutdown_op(self):
        ex = _executor()
        ex.start()
        server = IngestServer(ex, port=0, finish_on_shutdown=False).start()
        server.stop()
        ex.finish_ingest()
        assert ex.join(timeout=20.0).outputs == 0

    def test_health_op_reports_executor_state(self):
        ex = _executor()
        ex.start()
        server = IngestServer(ex, port=0).start()
        client = _Client(server.host, server.port)
        try:
            health = client.request({"op": "health"})
            assert health["ok"] is True
            assert health["ready"] is True
            assert health["executor_stopped"] is False
            assert health["accepted_items"] == 0
            assert "stats" in health
        finally:
            client.close()
            server.stop()
            ex.finish_ingest()
            ex.join(timeout=20.0)

    def test_malformed_inputs_get_structured_errors(self):
        ex = _executor()
        ex.start()
        server = IngestServer(ex, port=0).start()
        client = _Client(server.host, server.port)
        try:
            # Non-JSON, non-object, unknown op, empty submit, missing
            # items, ragged rows — every one is a structured error and
            # the connection keeps serving.
            client.file.write(b"not json at all\n")
            client.file.flush()
            assert "JSONDecodeError" in json.loads(client.file.readline())[
                "error"
            ]
            client.file.write(b"[1, 2, 3]\n")
            client.file.flush()
            assert "SpecError" in json.loads(client.file.readline())["error"]
            assert "unknown op" in client.request({"op": "warp"})["error"]
            assert (
                "non-empty"
                in client.request({"op": "submit", "items": []})["error"]
            )
            assert "non-empty" in client.request({"op": "submit"})["error"]
            ragged = client.request(
                {"op": "submit", "items": [[1.0], [1.0, 2.0]]}
            )
            assert "error" in ragged
            # Still serving: a good submit lands.
            assert client.request(
                {"op": "submit", "items": [1.0, 2.0]}
            ) == {"ok": True, "accepted": 2}
        finally:
            client.close()
            server.stop()
            ex.finish_ingest()
            assert ex.join(timeout=20.0).outputs == 2

    def test_oversized_submit_rejected_and_connection_closed(self):
        from repro.serving import ServingConfig

        ex = _executor()
        ex.start()
        server = IngestServer(
            ex,
            port=0,
            config=ServingConfig(max_line_bytes=512, idle_timeout=None),
        ).start()
        client = _Client(server.host, server.port)
        try:
            blob = json.dumps(
                {"op": "submit", "items": [1.0] * 4096}
            ).encode()
            client.file.write(blob + b"\n")
            client.file.flush()
            reply = json.loads(client.file.readline())
            assert "exceeds" in reply["error"]
            assert client.file.readline() == b""  # server closed it
        finally:
            client.close()
            server.stop()
            ex.finish_ingest()
            ex.join(timeout=20.0)

    def test_admission_overload_is_retriable(self):
        from repro.serving import AdmissionController

        ex = _executor()
        ex.start()
        server = IngestServer(
            ex, port=0, admission=AdmissionController(4)
        ).start()
        client = _Client(server.host, server.port)
        try:
            reply = client.request(
                {"op": "submit", "items": [float(i) for i in range(8)]}
            )
            assert reply["ok"] is False
            assert reply["retriable"] is True
            assert reply["budget"] == 4
            assert server.overload_rejections == 1
            # A within-budget submit still lands.
            small = client.request({"op": "submit", "items": [1.0, 2.0]})
            assert small == {"ok": True, "accepted": 2}
            stats = client.request({"op": "stats"})
            assert stats["admission"]["rejections"] == 1
        finally:
            client.close()
            server.stop()
            ex.finish_ingest()
            ex.join(timeout=20.0)

    def test_submit_after_executor_stop_rejected(self):
        ex = _executor()
        ex.start()
        server = IngestServer(ex, port=0, finish_on_shutdown=False).start()
        client = _Client(server.host, server.port)
        try:
            ex.finish_ingest()
            ex.join(timeout=20.0)
            assert ex.stopped  # public API, not executor._stop
            reply = client.request({"op": "submit", "items": [1.0]})
            assert reply["ok"] is False
            assert "stopped" in reply["error"]
        finally:
            client.close()
            server.stop()


class TestTableRowRejection:
    """A row outside the workload's preloaded table is refused at ingest.

    Before the check, a negative BLAST window start slipped through the
    seed filter by negative slicing and crashed the seed expander, which
    stopped the whole pipeline; an out-of-range gamma id raised in the
    head filter.
    """

    @pytest.mark.parametrize(
        "app, bad_rows",
        [
            ("blast", lambda wl: [-49904]),
            ("gamma", lambda wl: [wl.detail["photons"]]),
            ("gamma", lambda wl: [-1]),
            ("blast", lambda wl: [1.5]),
            ("blast", lambda wl: [[0, 1]]),
        ],
    )
    def test_bad_rows_rejected_and_pipeline_keeps_serving(self, app, bad_rows):
        from repro.runtime.kernels import build_workload

        wl = build_workload(app, seed=0)
        for kernel in wl.kernels:
            kernel.nominal_service = 0.001
        ex = PipelineExecutor(
            wl.kernels, [0.0] * wl.n_nodes, vector_width=8, deadline=10.0
        )
        ex.start()
        server = IngestServer(ex, port=0).start()
        client = _Client(server.host, server.port)
        try:
            reply = client.request({"op": "submit", "items": bad_rows(wl)})
            assert reply["error"].startswith("SpecError")
            good = wl.sample_payload(16, np.random.default_rng(0)).tolist()
            assert client.request({"op": "submit", "items": good}) == {
                "ok": True,
                "accepted": 16,
            }
            stats = client.request({"op": "stats"})
            assert stats["items_ingested"] == 16
            assert stats["serving"]["errors"] == 1
        finally:
            client.close()
            server.stop()
        report = ex.join(timeout=20.0)
        assert report.node_failures == ()
        assert report.missed_items == 0

    def test_tenant_submit_rejects_bad_rows(self):
        from repro.runtime.kernels import build_workload, plan_runtime
        from repro.tenancy.executor import MultiPipelineExecutor
        from repro.tenancy.server import MultiTenantIngestServer

        def plan_factory(name, tau0, deadline):
            wl = build_workload("gamma", seed=0)
            for kernel in wl.kernels:
                kernel.nominal_service = 0.001
            return plan_runtime(
                wl, vector_width=8, tau0=0.05, deadline=10.0,
                calibrate_b=False, n_gain_items=64, seed=0,
            )

        multi = MultiPipelineExecutor(arbitration="wrr").start()
        server = MultiTenantIngestServer(multi, plan_factory).start()
        client = _Client(server.host, server.port)
        try:
            admit = client.request({"op": "admit", "tenant": "g"})
            assert admit["ok"] is True, admit
            reply = client.request(
                {"op": "submit", "tenant": "g", "items": [-1, 3]}
            )
            assert reply["error"].startswith("SpecError")
            good = {"op": "submit", "tenant": "g", "items": [0, 1, 2, 3]}
            assert client.request(good)["accepted"] == 4
        finally:
            client.close()
            server.stop()
        report = multi.join(timeout=20.0)
        assert report.report("g").node_failures == ()
        assert report.missed("g") == 0
