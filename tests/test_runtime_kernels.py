"""Tests for the runtime kernels and wall-clock planning (repro.runtime.kernels)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.gains import BernoulliGain, DeterministicGain, EmpiricalGain
from repro.errors import SpecError
from repro.planning.cache import PlanCache
from repro.runtime.kernels import (
    _BLAST_K,
    _BLAST_THRESHOLD,
    _BLAST_WINDOW,
    _BLAST_XDROP,
    SpinKernel,
    _blast_genomes,
    build_workload,
    calibrate_service_times,
    measure_runtime_gains,
    plan_runtime,
    suggest_tau0,
)


class TestSpinKernel:
    def test_counts_match_output_rows(self):
        k = SpinKernel("s", BernoulliGain(0.5), seed=1)
        payload = np.arange(16.0)
        counts, outputs = k.fire(payload)
        assert counts.size == 16
        assert outputs.shape[0] == counts.sum()

    def test_outputs_repeat_inputs_in_order(self):
        k = SpinKernel("s", DeterministicGain(2), seed=1)
        counts, outputs = k.fire(np.asarray([7.0, 9.0]))
        assert counts.tolist() == [2, 2]
        assert outputs.tolist() == [7.0, 7.0, 9.0, 9.0]

    def test_reproducible_per_seed(self):
        a = SpinKernel("s", BernoulliGain(0.5), seed=3)
        b = SpinKernel("s", BernoulliGain(0.5), seed=3)
        pay = np.arange(32.0)
        assert a.fire(pay)[0].tolist() == b.fire(pay)[0].tolist()

    def test_rejects_non_distribution_gain(self):
        with pytest.raises(SpecError, match="GainDistribution"):
            SpinKernel("s", 0.5)

    def test_rejects_empty_name(self):
        with pytest.raises(SpecError, match="name"):
            SpinKernel("", BernoulliGain(0.5))


@pytest.mark.parametrize("app", ["blast", "nids", "gamma", "synthetic"])
class TestBuildWorkload:
    def test_three_stage_chain_runs(self, app):
        wl = build_workload(app, seed=0)
        assert wl.n_nodes == 3
        rng = np.random.default_rng(0)
        payload = wl.sample_payload(64, rng)
        assert len(payload) == 64
        for kernel in wl.kernels:
            counts, outputs = kernel.fire(payload)
            assert counts.size == len(payload)
            assert (counts >= 0).all()
            assert len(outputs) == counts.sum()
            if len(outputs) == 0:
                break
            payload = outputs

    def test_gain_measurement_yields_distributions(self, app):
        wl = build_workload(app, seed=0)
        dists = measure_runtime_gains(wl, n_items=256, seed=0)
        assert len(dists) == 3
        for d in dists:
            assert isinstance(d, EmpiricalGain)
            assert d.mean >= 0


class TestBuildWorkloadErrors:
    def test_unknown_app_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            build_workload("quantum")


class TestServiceCalibration:
    def test_sets_nominal_at_or_above_floor(self):
        wl = build_workload("synthetic", seed=0)
        calibrate_service_times(wl, floor=0.004, seed=0)
        for k in wl.kernels:
            assert k.nominal_service >= 0.004

    def test_preexisting_nominal_service_kept(self):
        wl = build_workload("synthetic", seed=0)
        wl.kernels[0].nominal_service = 0.123
        calibrate_service_times(wl, floor=0.004, seed=0)
        assert wl.kernels[0].nominal_service == 0.123


class TestPlanRuntime:
    def test_feasible_plan_in_seconds(self):
        wl = build_workload("synthetic", seed=0)
        plan = plan_runtime(wl, vector_width=8, seed=0, n_gain_items=256)
        assert plan.feasible
        assert plan.waits.shape == (3,)
        assert (plan.waits >= -1e-12).all()
        # Wall-clock scale: every service time is in [1 ms, 1 s].
        assert (plan.pipeline.service_times > 1e-3).all()
        assert (plan.pipeline.service_times < 1.0).all()
        assert 0 < plan.planned_active_fraction <= 1.0

    def test_suggest_tau0_positive(self):
        wl = build_workload("synthetic", seed=0)
        plan = plan_runtime(wl, vector_width=8, seed=0, n_gain_items=256)
        assert suggest_tau0(plan.pipeline) > 0

    def test_calibrated_b_covers_optimistic(self):
        from repro.core.enforced_waits import optimistic_b

        wl = build_workload("synthetic", seed=0)
        plan = plan_runtime(wl, vector_width=8, seed=0, n_gain_items=256)
        assert (plan.b >= optimistic_b(plan.pipeline) - 1e-12).all()

    def test_plan_cache_hit_on_identical_request(self):
        cache = PlanCache()
        wl = build_workload("synthetic", seed=0)
        plan_runtime(wl, vector_width=8, seed=0, n_gain_items=256, cache=cache)
        wl2 = build_workload("synthetic", seed=0)
        plan2 = plan_runtime(
            wl2, vector_width=8, seed=0, n_gain_items=256, cache=cache
        )
        assert plan2.outcome.source == "hit"

    def test_explicit_b_skips_calibration(self):
        wl = build_workload("synthetic", seed=0)
        b = np.asarray([1.0, 4.0, 2.0])
        plan = plan_runtime(
            wl, vector_width=8, seed=0, n_gain_items=256, b=b
        )
        assert plan.b.tolist() == b.tolist()


class TestGammaPairExpand:
    """The vectorized ragged gather vs the append-per-item loop it replaced."""

    def _kernel(self):
        from repro.runtime.kernels import _GammaPairExpand

        offsets = np.asarray([0, 0, 2, 2, 5, 6], dtype=np.int64)
        flat = np.asarray([10, 11, 20, 21, 22, 30], dtype=np.int64)
        return _GammaPairExpand(offsets, flat), offsets, flat

    def _loop_fire(self, offsets, flat, payload):
        counts, rows = [], []
        for i in np.asarray(payload, dtype=np.int64):
            partners = flat[offsets[i] : offsets[i + 1]]
            counts.append(len(partners))
            for p in partners:
                rows.append((int(i), int(p)))
        pairs = np.asarray(rows, dtype=np.int64).reshape(len(rows), 2)
        return np.asarray(counts, dtype=np.int64), pairs

    def test_matches_loop_reference(self):
        kernel, offsets, flat = self._kernel()
        payload = np.asarray([3, 0, 1, 3, 4, 2], dtype=np.int64)
        counts, pairs = kernel.fire(payload)
        ref_counts, ref_pairs = self._loop_fire(offsets, flat, payload)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(pairs, ref_pairs)

    def test_all_empty_segments(self):
        kernel, offsets, flat = self._kernel()
        counts, pairs = kernel.fire(np.asarray([0, 2], dtype=np.int64))
        assert np.array_equal(counts, [0, 0])
        assert pairs.shape == (0, 2)

    def test_empty_payload(self):
        kernel, _, _ = self._kernel()
        counts, pairs = kernel.fire(np.empty(0, dtype=np.int64))
        assert counts.size == 0
        assert pairs.shape == (0, 2)

    def test_gamma_workload_end_to_end_counts_conserve(self):
        from repro.runtime.kernels import build_workload

        wl = build_workload("gamma", seed=4)
        rng = np.random.default_rng(0)
        payload = wl.sample_payload(64, rng)
        for kernel in wl.kernels:
            counts, payload = kernel.fire(payload)
            assert int(counts.sum()) == len(payload)


class TestBlastKernelsMatchScalarReference:
    """The seed-table BLAST kernels vs the per-row ``apps.blast`` oracle.

    ``has_seed``, ``window_seeds`` and ``ungapped_extend`` are the
    reference the seed-table kernels replaced; counts, outputs, dtypes
    and shapes must be identical.
    """

    @pytest.fixture(scope="class")
    def blast(self):
        """The seed-0 workload, its query's k-mer index and its genomes."""
        from repro.apps.blast.seeding import KmerIndex

        query, db = _blast_genomes(0)
        wl = build_workload("blast", seed=0)
        return wl, KmerIndex(query, _BLAST_K), query, db

    @staticmethod
    def _same(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @staticmethod
    def _oracle(index, query, db, starts):
        """The three stages fired row by row through the scalar functions."""
        from repro.apps.blast.extension import ungapped_extend
        from repro.apps.blast.pipeline import EXPANDER_LIMIT

        window = _BLAST_WINDOW
        hit = np.asarray(
            [index.has_seed(db, int(s), window) for s in starts], dtype=bool
        ).reshape(-1)
        filtered = (hit.astype(np.int64), starts[hit])
        counts, rows = [], []
        for s in starts:
            kept = index.window_seeds(db, int(s), window)[:EXPANDER_LIMIT]
            counts.append(len(kept))
            rows.extend(kept)
        expanded = (
            np.asarray(counts, dtype=np.int64),
            np.asarray(rows, dtype=np.int64).reshape(-1, 2),
        )
        pairs = expanded[1]
        keep = np.asarray(
            [
                ungapped_extend(
                    query, db, int(q), int(p), _BLAST_K, xdrop=_BLAST_XDROP
                ).score
                >= _BLAST_THRESHOLD
                for q, p in pairs
            ],
            dtype=bool,
        ).reshape(-1)
        extended = (keep.astype(np.int64), pairs[keep])
        return filtered, expanded, extended

    def _check(self, blast, starts):
        wl, index, query, db = blast
        starts = np.asarray(starts, dtype=np.int64)
        want = self._oracle(index, query, db, starts)
        seed_filter, expand, extend = wl.kernels
        self._same(seed_filter.fire(starts), want[0])
        self._same(expand.fire(starts), want[1])
        self._same(extend.fire(want[1][1]), want[2])

    def test_random_aligned_starts(self, blast):
        wl = blast[0]
        rng = np.random.default_rng(7)
        for v in (1, 3, 8, 17, 63):
            self._check(blast, wl.sample_payload(v, rng))

    def test_random_arbitrary_starts(self, blast):
        n = blast[3].size
        rng = np.random.default_rng(8)
        for v in (1, 5, 8, 31, 64):
            self._check(blast, rng.integers(0, n, size=v))

    def test_tail_starts(self, blast):
        n, k = blast[3].size, _BLAST_K
        self._check(blast, np.arange(n - k, n))
        self._check(blast, np.arange(n - 40, n))

    def test_duplicate_starts_and_empty_payload(self, blast):
        starts = blast[0].sample_payload(4, np.random.default_rng(9))
        self._check(blast, np.concatenate([starts, starts, starts[:1]]))
        self._check(blast, np.empty(0, dtype=np.int64))

    def test_expander_truncates_at_limit(self, blast):
        from repro.apps.blast.pipeline import EXPANDER_LIMIT

        wl, index, _, db = blast
        starts = np.arange(0, db.size, 7, dtype=np.int64)
        counts, _ = wl.kernels[1].fire(starts)
        assert counts.max() == EXPANDER_LIMIT
        dense = starts[counts == EXPANDER_LIMIT][:8]
        assert max(
            len(index.window_seeds(db, int(s), _BLAST_WINDOW)) for s in dense
        ) > EXPANDER_LIMIT
        self._check(blast, dense)

    @pytest.mark.parametrize("bad", [-1, -49904, None])
    def test_out_of_table_starts_raise_instead_of_wrapping(self, blast, bad):
        wl, _, _, db = blast
        if bad is None:
            bad = db.size
        for kernel in wl.kernels[:2]:
            with pytest.raises(SpecError, match="outside the preloaded table"):
                kernel.fire(np.asarray([0, bad], dtype=np.int64))
            with pytest.raises(SpecError):
                kernel.check_payload(np.asarray([bad]))

    def test_extension_rejects_pairs_outside_the_seed_table(self, blast):
        wl, index, _, db = blast
        extend = wl.kernels[2]
        _, pairs = index.seed_table(db)
        q, d = (int(v) for v in pairs[0])
        with pytest.raises(SpecError, match="not a seed"):
            extend.fire(np.asarray([[q, d], [q, d + 1]]))
        with pytest.raises(SpecError, match="outside the preloaded table"):
            extend.fire(np.asarray([[q, d], [-1, d + 1]]))

    def test_seed_table_concatenates_window_seeds(self, blast):
        _, index, _, db = blast
        offsets, pairs = index.seed_table(db)
        assert offsets.size == db.size - index.k + 2
        want = index.window_seeds(db, 0, db.size)
        assert pairs.tolist() == [list(p) for p in want]


class TestBatchedExtension:
    """``ungapped_extend_scores`` vs ``ungapped_extend``, one seed at a time."""

    @staticmethod
    def _reference(query, db, qpos, dpos, k, xdrop):
        from repro.apps.blast.extension import ungapped_extend

        return np.asarray(
            [
                ungapped_extend(query, db, int(q), int(d), k, xdrop=xdrop).score
                for q, d in zip(qpos, dpos)
            ],
            dtype=np.int64,
        )

    def _check(self, query, db, qpos, dpos, k, xdrop=12):
        from repro.apps.blast.extension import ungapped_extend_scores

        got = ungapped_extend_scores(query, db, qpos, dpos, k, xdrop=xdrop)
        want = self._reference(query, db, qpos, dpos, k, xdrop)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_every_seed_of_the_workload(self):
        from repro.apps.blast.seeding import KmerIndex

        query, db = _blast_genomes(0)
        k = _BLAST_K
        _, pairs = KmerIndex(query, k).seed_table(db)
        for xdrop in (0, 2, 5, 12, 40):
            self._check(query, db, pairs[:, 0], pairs[:, 1], k, xdrop)

    def test_sequence_edges(self):
        rng = np.random.default_rng(3)
        query = rng.integers(0, 4, 60).astype(np.uint8)
        db = rng.integers(0, 4, 90).astype(np.uint8)
        k = 5
        qpos = np.asarray([0, 0, 60 - k, 60 - k, 7, 0, 60 - k])
        dpos = np.asarray([0, 90 - k, 0, 90 - k, 0, 44, 44])
        for xdrop in (0, 2, 3, 12, 1000):
            self._check(query, db, qpos, dpos, k, xdrop)

    def test_homologies_running_into_sequence_edges(self):
        rng = np.random.default_rng(5)
        query = rng.integers(0, 4, 40).astype(np.uint8)
        # The query opens and closes the database: extensions from seeds
        # in those copies match right up to both sequence edges.
        db = np.concatenate([query, rng.integers(0, 4, 30), query])
        k = 6
        qpos = np.asarray([0, 40 - k, 17, 0, 40 - k, 17])
        dpos = np.asarray([0, 40 - k, 17, 70, 110 - k, 87])
        for xdrop in (0, 2, 12, 1000):
            self._check(query, db, qpos, dpos, k, xdrop)

    def test_runs_longer_than_one_chunk(self):
        from repro.apps.blast.extension import _CHUNK

        rng = np.random.default_rng(4)
        query = rng.integers(0, 4, 5 * _CHUNK).astype(np.uint8)
        db = np.concatenate(
            [rng.integers(0, 4, 50), query, rng.integers(0, 4, 50)]
        ).astype(np.uint8)
        db[50 + 3 * _CHUNK] ^= 1  # one mismatch inside the homology
        qpos = np.arange(0, query.size - 8, 9)
        self._check(query, db, qpos, qpos + 50, 8)
        for xdrop in (1, 2, 4):
            self._check(query, db, qpos, qpos + 50, 8, xdrop=xdrop)

    def test_out_of_range_seed_raises(self):
        from repro.apps.blast.extension import ungapped_extend_scores

        query = np.zeros(20, dtype=np.uint8)
        db = np.zeros(30, dtype=np.uint8)
        with pytest.raises(SpecError, match="qpos -1"):
            ungapped_extend_scores(query, db, [0, -1], [0, 0], 4)
        with pytest.raises(SpecError, match="dpos 27"):
            ungapped_extend_scores(query, db, [0, 0], [0, 27], 4)
        with pytest.raises(SpecError, match="xdrop"):
            ungapped_extend_scores(query, db, [0], [0], 4, xdrop=-1)

    def test_empty_batch(self):
        from repro.apps.blast.extension import ungapped_extend_scores

        out = ungapped_extend_scores(
            np.zeros(20, dtype=np.uint8), np.zeros(30, dtype=np.uint8),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4,
        )
        assert out.shape == (0,) and out.dtype == np.int64


class TestBlastPlanPinned:
    def test_plan_unchanged(self):
        """The batched kernels leave the blast plan exactly as before."""
        plan = plan_runtime(build_workload("blast"), vector_width=8, seed=0)
        assert plan.problem.tau0 == float.fromhex("0x1.d41d41d41d41dp-11")
        assert plan.problem.deadline == float.fromhex("0x1.c28f5c28f5c28p-2")
        assert plan.b.tolist() == [1.0, 9.0, 1.0]
        assert plan.waits.tolist() == [
            float.fromhex("0x1.18de5ab277f44p-9"),
            float.fromhex("0x1.5bcbbba79e1e6p-5"),
            float.fromhex("0x1.8d01a3c0704b8p-11"),
        ]
