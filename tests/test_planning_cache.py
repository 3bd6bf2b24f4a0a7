"""Plan-cache correctness: key canonicalization, LRU, disk store."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.core.model import RealTimeProblem
from repro.dataflow.gains import BernoulliGain, CensoredPoissonGain
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SpecError
from repro.planning.cache import (
    SCHEMA_VERSION,
    PlanCache,
    plan_key,
    plan_payload,
    shape_key,
    shape_payload,
    solution_from_dict,
    solution_to_dict,
)


@pytest.fixture
def pipeline() -> PipelineSpec:
    return PipelineSpec.from_arrays([10.0, 20.0], [0.5, 1.0], 4)


@pytest.fixture
def problem(pipeline) -> RealTimeProblem:
    return RealTimeProblem(pipeline, 20.0, 500.0)


@pytest.fixture
def solution(problem):
    return EnforcedWaitsProblem(problem, np.asarray([1.0, 1.0])).solve()


class TestKeyCanonicalization:
    def test_deterministic(self, problem):
        b = np.asarray([1.0, 2.0])
        assert plan_key(problem, b) == plan_key(problem, b)

    def test_float_formatting_invariance(self, pipeline):
        """20, 20.0, np.float64(20) — same value, same key."""
        b = [1, 2]
        k1 = plan_key(RealTimeProblem(pipeline, 20, 500), b)
        k2 = plan_key(RealTimeProblem(pipeline, 20.0, 5e2), b)
        k3 = plan_key(
            RealTimeProblem(pipeline, float(np.float64(20)), 500.0),
            np.asarray([1.0, 2.0]),
        )
        assert k1 == k2 == k3

    def test_node_names_and_gain_model_do_not_enter_key(self):
        """The optimizer sees only (t, g, v): keys ignore naming and the
        gain distribution's family (only its mean matters)."""
        via_arrays = PipelineSpec.from_arrays([5.0, 7.0], [0.5, 2.0], 8)
        manual = PipelineSpec(
            (
                NodeSpec("alpha", 5.0, BernoulliGain(0.5)),
                NodeSpec("omega", 7.0, CensoredPoissonGain(2.0, 16)),
            ),
            8,
        )
        b = [1.0, 2.0]
        k1 = plan_key(RealTimeProblem(via_arrays, 3.0, 100.0), b)
        k2 = plan_key(RealTimeProblem(manual, 3.0, 100.0), b)
        # from_arrays' censored-Poisson mean is slightly below nominal;
        # only compare when the means genuinely agree.
        if np.allclose(via_arrays.mean_gains, manual.mean_gains):
            assert k1 == k2

    def test_distinct_configurations_distinct_keys(self, pipeline, problem):
        b = [1.0, 2.0]
        base = plan_key(problem, b)
        assert plan_key(problem.with_tau0(21.0), b) != base
        assert plan_key(problem.with_deadline(600.0), b) != base
        assert plan_key(problem, [1.0, 3.0]) != base
        assert plan_key(problem, b, method="fallback") != base
        wider = RealTimeProblem(pipeline.with_vector_width(8), 20.0, 500.0)
        assert plan_key(wider, b) != base

    def test_shape_key_ignores_operating_point(self, pipeline, problem):
        b = [1.0, 2.0]
        s = shape_key(pipeline, b)
        assert (
            shape_key(problem.with_tau0(99.0).pipeline, b) == s
        )  # same pipeline object family
        assert shape_key(pipeline, [2.0, 2.0]) != s
        assert shape_key(pipeline.with_vector_width(16), b) != s

    def test_blast_key_is_pinned(self):
        """On-disk stores are keyed by these digests: they must not drift."""
        from repro.apps.blast.pipeline import blast_pipeline, calibrated_b

        problem = RealTimeProblem(blast_pipeline(), 20.0, 1.5e5)
        assert plan_key(problem, calibrated_b()) == (
            "c8292e734da2527aa0a8eb4dea8a5c06713819eec8b216308a2f85fe74138ec3"
        )

    @pytest.mark.parametrize(
        "tau0,deadline,b",
        [(20.0, 500.0, [1.0, 2.0]), (0.1, 3.5, [0.5, 1e-300]), (1e300, 1e-3, [3.0, 3.0])],
    )
    def test_key_is_the_digest_of_its_payload(self, pipeline, tau0, deadline, b):
        """The memoized key path hashes exactly the canonical payload JSON."""
        problem = RealTimeProblem(pipeline, tau0, deadline)
        blob = json.dumps(
            plan_payload(problem, b), sort_keys=True, separators=(",", ":")
        )
        assert plan_key(problem, b) == hashlib.sha256(blob.encode()).hexdigest()

    def test_returned_payload_is_a_fresh_copy(self, pipeline):
        b = [1.0, 2.0]
        key = shape_key(pipeline, b)
        shape_payload(pipeline, b)["v"] = 999
        assert shape_key(pipeline, b) == key
        assert shape_payload(pipeline, b)["v"] == 4

    def test_bad_b_shape_raises(self, problem):
        with pytest.raises(SpecError, match="length"):
            plan_key(problem, [1.0, 2.0, 3.0])

    def test_keys_are_pinned(self):
        """Literal digests: a change to key encoding orphans every stored plan."""
        from repro.apps.blast.pipeline import blast_pipeline, calibrated_b

        blast = RealTimeProblem(blast_pipeline(), 20.0, 1.5e5)
        assert plan_key(blast, calibrated_b()) == (
            "c8292e734da2527aa0a8eb4dea8a5c06713819eec8b216308a2f85fe74138ec3"
        )
        assert shape_key(blast.pipeline, calibrated_b()) == (
            "853a4546482f8d6e93643176403cc81fe885d29c3b40030a9203189cb991ae2e"
        )
        assert plan_key(blast, calibrated_b(), method="fallback") == (
            "29c0f7e293d0361d4ccd1bac9b5d0860e6cfbe2f7215cf060869e917624a60c7"
        )
        # Integer service times and b key as their float64 values.
        ints = PipelineSpec((NodeSpec("a", 2), NodeSpec("b", 3)), 4)
        assert plan_key(RealTimeProblem(ints, 5, 100), [1, 2]) == (
            "bfe53140006a96ff053e7c214ba60e7091d71f112a78f5a184350b47235cdbe0"
        )
        assert shape_key(ints, np.asarray([1.0, 2.0])) == (
            "ad4a87102867c52624f5536f456ea45a4232d402a71cb31ed723ad4a04ccdd0f"
        )

    def test_pipeline_key_bytes_are_memoized(self, pipeline):
        assert pipeline.key_bytes is pipeline.key_bytes
        assert pipeline.key_bytes == (
            np.asarray([10.0, 20.0]).tobytes(), np.asarray([0.5, 1.0]).tobytes()
        )


class TestSolutionRoundTrip:
    def test_bit_exact_json_round_trip(self, solution):
        blob = json.dumps(solution_to_dict(solution))
        back = solution_from_dict(json.loads(blob))
        assert back.feasible == solution.feasible
        assert np.array_equal(back.periods, solution.periods)
        assert np.array_equal(back.waits, solution.waits)
        assert back.active_fraction == solution.active_fraction
        assert np.array_equal(
            back.node_utilizations, solution.node_utilizations
        )
        assert back.binding == solution.binding
        assert back.method == solution.method

    def test_infeasible_round_trip(self, problem):
        bad = EnforcedWaitsProblem(
            problem.with_deadline(1e-3), np.asarray([1.0, 1.0])
        ).solve()
        assert not bad.feasible
        back = solution_from_dict(
            json.loads(json.dumps(solution_to_dict(bad)))
        )
        assert not back.feasible
        assert np.isnan(back.active_fraction)
        assert back.diagnosis == bad.diagnosis


class TestLru:
    def test_hit_miss_counters_and_identity(self, solution):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", solution)
        assert cache.get("k") is solution
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.requests == 2

    def test_eviction_order_is_lru(self, solution):
        cache = PlanCache(capacity=2)
        cache.put("a", solution)
        cache.put("b", solution)
        assert cache.get("a") is solution  # refresh a
        cache.put("c", solution)  # evicts b, the least recently used
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_shape_index_follows_eviction(self, solution):
        cache = PlanCache(capacity=1)
        cache.put("a", solution, shape="s")
        cache.put("b", solution, shape="s2")
        assert cache.nearest_by_shape("s") is None
        assert cache.nearest_by_shape("s2") is solution

    def test_nearest_by_shape_prefers_most_recent(self, solution, problem):
        other = EnforcedWaitsProblem(
            problem.with_tau0(25.0), np.asarray([1.0, 1.0])
        ).solve()
        cache = PlanCache()
        cache.put("a", solution, shape="s")
        cache.put("b", other, shape="s")
        assert cache.nearest_by_shape("s") is other

    def test_infeasible_solutions_never_seed_warm_starts(self, problem):
        bad = EnforcedWaitsProblem(
            problem.with_deadline(1e-3), np.asarray([1.0, 1.0])
        ).solve()
        cache = PlanCache()
        cache.put("a", bad, shape="s")
        assert cache.nearest_by_shape("s") is None

    def test_capacity_validation(self):
        with pytest.raises(SpecError):
            PlanCache(capacity=0)


class TestDiskStore:
    def test_round_trip_is_bit_exact(self, tmp_path, solution):
        path = tmp_path / "plans.json"
        cache = PlanCache(path=path)
        cache.put("k", solution, shape="s", meta={"note": "x"})
        cache.flush()

        fresh = PlanCache(path=path)
        assert len(fresh) == 1
        assert fresh.stats.disk_entries_loaded == 1
        assert fresh.stats.disk_load_errors == 0
        got = fresh.get("k")
        assert np.array_equal(got.periods, solution.periods)
        assert got.active_fraction == solution.active_fraction
        assert fresh.nearest_by_shape("s") is got

    def test_missing_file_is_cold_start(self, tmp_path):
        cache = PlanCache(path=tmp_path / "absent.json")
        assert len(cache) == 0
        assert cache.stats.disk_load_errors == 0

    @pytest.mark.parametrize(
        "content",
        [
            "this is not json{{{",
            '{"schema": 999, "entries": []}',
            '{"entries": []}',
            '{"schema": %d, "entries": {"not": "a list"}}' % SCHEMA_VERSION,
            "[1, 2, 3]",
            "",
        ],
    )
    def test_corrupted_store_never_raises(self, tmp_path, content):
        path = tmp_path / "plans.json"
        path.write_text(content)
        cache = PlanCache(path=path)  # must not raise
        assert len(cache) == 0
        assert cache.stats.disk_load_errors == 1

    def test_truncated_store_never_raises(self, tmp_path, solution):
        path = tmp_path / "plans.json"
        cache = PlanCache(path=path)
        cache.put("k", solution)
        cache.flush()
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        fresh = PlanCache(path=path)
        assert len(fresh) == 0
        assert fresh.stats.disk_load_errors == 1

    def test_partial_entries_skipped_good_ones_kept(self, tmp_path, solution):
        path = tmp_path / "plans.json"
        payload = {
            "schema": SCHEMA_VERSION,
            "entries": [
                {"key": "bad-1"},  # missing solution
                {
                    "key": "good",
                    "shape": None,
                    "meta": {},
                    "solution": solution_to_dict(solution),
                },
                {"key": 42, "solution": solution_to_dict(solution)},
                "not even a dict",
            ],
        }
        path.write_text(json.dumps(payload))
        cache = PlanCache(path=path)
        assert len(cache) == 1
        assert cache.stats.disk_entries_loaded == 1
        assert cache.stats.disk_load_errors == 3
        assert cache.get("good") is not None

    def test_flush_without_path_raises(self, solution):
        cache = PlanCache()
        cache.put("k", solution)
        with pytest.raises(SpecError, match="no on-disk path"):
            cache.flush()

    def test_telemetry_counters(self, solution):
        cache = PlanCache(capacity=1)
        cache.put("a", solution)
        cache.put("b", solution)
        cache.get("b")
        cache.get("zzz")
        t = cache.telemetry()
        assert t.entries == 1
        assert t.hits == 1 and t.misses == 1
        assert t.stores == 2 and t.evictions == 1
        assert "plan cache telemetry" in t.render()
        assert t.hit_rate == pytest.approx(0.5)


class TestFloatCanonicalization:
    def test_negative_zero_and_zero_share_a_key(self, problem):
        """-0.0 and 0.0 compare equal, so their keys must agree.

        float.hex() distinguishes them ('-0x0.0p+0' vs '0x0.0p+0'), so
        canonicalization has to collapse the sign before hashing — a
        solver emitting a -0.0 budget entry used to miss the cache.
        """
        assert plan_key(problem, [0.0, 1.0]) == plan_key(
            problem, [-0.0, 1.0]
        )
        assert shape_key(problem.pipeline, [0.0, 1.0]) == shape_key(
            problem.pipeline, [-0.0, 1.0]
        )
        assert plan_key(problem, np.asarray([0.0, 1.0])) == plan_key(
            problem, np.asarray([np.negative(0.0), 1.0])
        )

    def test_negative_zero_hits_a_zero_keyed_entry(self, problem, solution):
        cache = PlanCache(capacity=4)
        cache.put(plan_key(problem, [0.0, 1.0]), solution)
        assert cache.get(plan_key(problem, [-0.0, 1.0])) is solution

    def test_nan_parameter_rejected(self, problem):
        with pytest.raises(SpecError, match="NaN"):
            plan_key(problem, [float("nan"), 1.0])

    def test_nonzero_values_keep_full_precision(self, problem):
        """Canonicalization must not round: nextafter(1) gets its own key."""
        eps_up = np.nextafter(1.0, 2.0)
        assert plan_key(problem, [1.0, 1.0]) != plan_key(
            problem, [eps_up, 1.0]
        )
