"""Tests for the sharded planning frontend (repro.tenancy.frontend).

Ring tests are pure and fast.  The end-to-end tests spawn real
``repro-plan serve`` worker subprocesses behind the consistent-hash
frontend and are marked slow, among them a flood of 128 concurrent
plan requests that must all be answered.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ServingError, SpecError
from repro.serving import ServingConfig
from repro.serving.chaos import flood, request_once
from repro.tenancy.frontend import (
    ConsistentHashRing,
    ShardedPlanningFrontend,
    start_worker_pool,
)

KEYS = [f"key-{i}" for i in range(1000)]


class TestConsistentHashRing:
    def test_routing_is_deterministic(self):
        a = ConsistentHashRing(("x", "y", "z"))
        b = ConsistentHashRing(("z", "y", "x"))  # insertion order free
        assert [a.route(k) for k in KEYS] == [b.route(k) for k in KEYS]

    def test_every_node_owns_keys(self):
        ring = ConsistentHashRing(("a", "b", "c"))
        owners = Counter(ring.route(k) for k in KEYS)
        assert set(owners) == {"a", "b", "c"}
        assert min(owners.values()) > 0

    def test_removal_only_moves_the_removed_nodes_keys(self):
        ring = ConsistentHashRing(("a", "b", "c"))
        before = {k: ring.route(k) for k in KEYS}
        ring.remove("c")
        for k in KEYS:
            if before[k] != "c":
                assert ring.route(k) == before[k]
            else:
                assert ring.route(k) in {"a", "b"}

    def test_re_adding_restores_the_original_map(self):
        ring = ConsistentHashRing(("a", "b", "c"))
        before = {k: ring.route(k) for k in KEYS}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.route(k) for k in KEYS} == before

    def test_membership_validation(self):
        ring = ConsistentHashRing(("a",))
        with pytest.raises(SpecError, match="already on the ring"):
            ring.add("a")
        with pytest.raises(SpecError, match="not on the ring"):
            ring.remove("b")
        ring.remove("a")
        with pytest.raises(SpecError, match="empty ring"):
            ring.route("k")

    def test_replicas_validation(self):
        with pytest.raises(SpecError, match="replicas"):
            ConsistentHashRing(replicas=0)

    def test_len_counts_members(self):
        assert len(ConsistentHashRing(("a", "b"))) == 2


def _demo_wire_requests(n, distinct):
    from repro.planning.cli import demo_requests, request_to_wire

    return [request_to_wire(r) for r in demo_requests(n, distinct=distinct)]


@pytest.mark.slow
class TestShardedFrontend:
    @pytest.fixture()
    def frontend(self):
        workers = start_worker_pool(2)
        fe = ShardedPlanningFrontend(workers).start()
        try:
            yield fe
        finally:
            fe.stop()
            fe.join(timeout=30.0)
            for w in workers:
                w.stop()

    def test_routing_is_sticky_and_work_is_answered(self, frontend):
        reqs = _demo_wire_requests(16, distinct=8)
        result = flood(
            frontend.host,
            frontend.port,
            clients=4,
            requests_per_client=4,
            build_request=lambda ci, ri: reqs[(ci * 4 + ri) % len(reqs)],
        )
        assert result.transport_failures == 0, result.exceptions
        assert result.ok == result.sent == 16
        stats = request_once(frontend.host, frontend.port, {"op": "stats"})
        assert stats["worker_failures"] == 0
        assert sum(stats["routed"].values()) == 16
        # The same request always lands on the same worker: replaying
        # one request repeatedly must leave the other worker's routed
        # count untouched.
        before = request_once(
            frontend.host, frontend.port, {"op": "stats"}
        )["routed"]
        for _ in range(5):
            reply = request_once(frontend.host, frontend.port, reqs[0])
            assert "error" not in reply
            owner = reply["worker"]
        after = request_once(
            frontend.host, frontend.port, {"op": "stats"}
        )["routed"]
        moved = {w: after[w] - before[w] for w in after}
        assert moved[owner] == 5
        assert sum(moved.values()) == 5

    def test_flood_of_128_requests_is_fully_answered(self):
        clients, per_client = 32, 4
        reqs = _demo_wire_requests(64, distinct=64)
        workers = start_worker_pool(2)
        fe = ShardedPlanningFrontend(
            workers,
            config=ServingConfig(max_connections=1024, idle_timeout=None),
        ).start()
        try:
            result = flood(
                fe.host,
                fe.port,
                clients=clients,
                requests_per_client=per_client,
                build_request=lambda ci, ri: reqs[
                    (ci * per_client + ri) % len(reqs)
                ],
                timeout=300.0,
            )
            stats = request_once(fe.host, fe.port, {"op": "stats"}, timeout=60.0)
        finally:
            fe.stop()
            fe.join(timeout=60.0)
            for w in workers:
                w.stop()
        assert result.sent >= 128
        assert result.answered == result.sent
        assert result.transport_failures == 0, result.exceptions
        assert result.errors == 0
        assert stats["worker_failures"] == 0
        assert result.latency_quantile(0.99) * 1e3 <= 5000.0

    def test_repeat_requests_hit_the_worker_cache(self, frontend):
        req = _demo_wire_requests(1, distinct=1)[0]
        first = request_once(frontend.host, frontend.port, req)
        again = request_once(frontend.host, frontend.port, req)
        assert "error" not in first and "error" not in again
        assert again["source"] == "hit"
        assert again["worker"] == first["worker"]

    def test_health_reports_per_worker_liveness(self, frontend):
        health = request_once(frontend.host, frontend.port, {"op": "health"})
        assert health["ok"]
        workers = health["workers"]
        assert len(workers) == 2
        assert all(w["alive"] for w in workers.values())

    def test_dead_worker_yields_retriable_error(self, frontend):
        reqs = _demo_wire_requests(32, distinct=32)
        # Find a request routed to each worker, then kill one worker.
        owner_of = {}
        for req in reqs:
            reply = request_once(frontend.host, frontend.port, req)
            owner_of.setdefault(reply["worker"], req)
            if len(owner_of) == 2:
                break
        assert len(owner_of) == 2
        victim_name, victim_req = next(iter(owner_of.items()))
        victim = frontend.workers[victim_name]
        victim.process.kill()
        victim.process.wait(timeout=10.0)
        reply = request_once(
            frontend.host, frontend.port, victim_req, timeout=30.0
        )
        assert reply["ok"] is False
        assert reply["retriable"] is True
        assert reply["worker"] == victim_name
        # The surviving worker keeps serving its shard.
        other_name = next(n for n in owner_of if n != victim_name)
        reply = request_once(
            frontend.host, frontend.port, owner_of[other_name]
        )
        assert "error" not in reply
        stats = request_once(frontend.host, frontend.port, {"op": "stats"})
        assert stats["worker_failures"] >= 1

    def test_shutdown_stops_the_worker_pool(self):
        workers = start_worker_pool(2)
        fe = ShardedPlanningFrontend(workers).start()
        reply = request_once(fe.host, fe.port, {"op": "shutdown"})
        assert reply["ok"]
        fe.join(timeout=30.0)
        assert all(not w.alive for w in workers)


@pytest.mark.slow
class TestWorkerPoolSpawn:
    def test_pool_size_validation(self):
        with pytest.raises(SpecError, match="pool size"):
            start_worker_pool(0)

    def test_worker_spawn_failure_raises_serving_error(self):
        from repro.tenancy.frontend import PlanWorker

        with pytest.raises(ServingError, match="worker"):
            PlanWorker.spawn(
                "doomed", extra_args=("--no-such-flag",), timeout=15.0
            )
