"""Backend seam + hot-loop kernels + fast-path authenticity.

Three layers of the compiled-backend stack:

- :mod:`repro.simd.backend` — selection, the ``REPRO_BACKEND`` override,
  degradation when a requested backend is unavailable;
- :mod:`repro.des.hotloop` — the dispatched kernels against literal
  one-step-at-a-time loop references (bit-identical, not approximate);
- the enforced-waits fast path — that it *actually* runs under fast
  backends (``engine.events_processed == 0`` is the tell), that forcing
  ``python`` authentically runs the event loop, and that both produce
  bit-identical metrics on randomized pipelines (property-based).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simd.backend as backend_mod
from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.hotloop import consumed_scan, firing_schedule, ragged_gather
from repro.errors import SpecError
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.simd.backend import (
    available_backends,
    get_backend,
    numba_available,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-wide backend exactly as we found it."""
    before = backend_mod._active
    yield
    backend_mod._active = before


class TestBackendSelection:
    def test_auto_resolves_to_an_available_backend(self):
        be = set_backend("auto")
        assert be.name in available_backends()
        assert be.requested == "auto"
        assert be.name != "auto"

    def test_explicit_choices_resolve(self):
        assert set_backend("vector").name == "vector"
        assert set_backend("python").name == "python"
        assert not set_backend("python").fastpath
        assert set_backend("vector").fastpath

    def test_unknown_name_raises_spec_error(self):
        with pytest.raises(SpecError, match="REPRO_BACKEND"):
            set_backend("cuda")

    def test_env_var_drives_first_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        backend_mod._active = None
        assert get_backend().name == "python"
        monkeypatch.setenv("REPRO_BACKEND", "VECTOR")  # case-insensitive
        backend_mod._active = None
        assert get_backend().name == "vector"

    def test_use_backend_restores_previous(self):
        set_backend("vector")
        with use_backend("python") as be:
            assert be.name == "python"
            assert get_backend().name == "python"
        assert get_backend().name == "vector"
        # ... including on error.
        with pytest.raises(RuntimeError):
            with use_backend("python"):
                raise RuntimeError("boom")
        assert get_backend().name == "vector"

    def test_available_backends_always_include_fallbacks(self):
        names = available_backends()
        assert "vector" in names and "python" in names

    @pytest.mark.skipif(
        numba_available(), reason="needs an environment without numba"
    )
    def test_requesting_missing_numba_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="numba"):
            be = set_backend("numba")
        assert be.name == "vector"
        assert be.requested == "numba"
        assert not be.compiled

    def test_demote_is_a_noop_off_numba(self):
        set_backend("vector")
        assert backend_mod.demote_backend("test").name == "vector"


# -- hot-loop kernels vs literal loop references ----------------------------


def _firing_schedule_loop(f0, t, w, k):
    fires, comps = [], []
    f = f0
    for _ in range(k):
        fires.append(f)
        c = f + t
        comps.append(c)
        f = c + w
    return np.asarray(fires), np.asarray(comps)


def _consumed_scan_loop(avail, v):
    out, c = [], 0
    for a in avail:
        c += min(v, max(0, int(a) - c))
        out.append(c)
    return np.asarray(out, dtype=np.int64)


def _ragged_gather_loop(offsets, flat, idx):
    counts, owners, values = [], [], []
    for i in idx:
        seg = flat[offsets[i] : offsets[i + 1]]
        counts.append(len(seg))
        owners.extend([i] * len(seg))
        values.extend(seg.tolist())
    return (
        np.asarray(counts, dtype=np.int64),
        np.asarray(owners, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
    )


class TestHotloopKernels:
    def test_firing_schedule_bit_identical_to_loop(self):
        fires, comps = firing_schedule(0.37, 1.1, 0.7, 50)
        ref_f, ref_c = _firing_schedule_loop(0.37, 1.1, 0.7, 50)
        # Bitwise: the accumulate performs the same adds in the same
        # order as the event loop's recurrence.
        assert np.array_equal(fires, ref_f)
        assert np.array_equal(comps, ref_c)

    def test_firing_schedule_empty(self):
        fires, comps = firing_schedule(0.0, 1.0, 1.0, 0)
        assert fires.size == 0 and comps.size == 0

    @given(
        f0=st.floats(0, 100, allow_nan=False),
        t=st.floats(0.01, 10, allow_nan=False),
        w=st.floats(0, 10, allow_nan=False),
        k=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_firing_schedule_property(self, f0, t, w, k):
        fires, comps = firing_schedule(f0, t, w, k)
        ref_f, ref_c = _firing_schedule_loop(f0, t, w, k)
        assert np.array_equal(fires, ref_f)
        assert np.array_equal(comps, ref_c)

    def test_consumed_scan_matches_loop(self):
        avail = np.asarray([3, 3, 10, 10, 25, 40], dtype=np.int64)
        assert np.array_equal(
            consumed_scan(avail, 8), _consumed_scan_loop(avail, 8)
        )

    def test_consumed_scan_empty(self):
        assert consumed_scan(np.empty(0, dtype=np.int64), 4).size == 0

    @given(
        deltas=st.lists(st.integers(0, 20), min_size=1, max_size=60),
        v=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_consumed_scan_property(self, deltas, v):
        avail = np.cumsum(np.asarray(deltas, dtype=np.int64))
        assert np.array_equal(
            consumed_scan(avail, v), _consumed_scan_loop(avail, v)
        )

    def test_ragged_gather_matches_loop(self):
        offsets = np.asarray([0, 2, 2, 5, 9], dtype=np.int64)
        flat = np.arange(100, 109, dtype=np.int64)
        idx = np.asarray([3, 0, 2, 2, 1], dtype=np.int64)
        got = ragged_gather(offsets, flat, idx)
        ref = _ragged_gather_loop(offsets, flat, idx)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_ragged_gather_empty_idx(self):
        offsets = np.asarray([0, 1], dtype=np.int64)
        counts, owners, values = ragged_gather(
            offsets, np.asarray([7]), np.empty(0, dtype=np.int64)
        )
        assert counts.size == owners.size == values.size == 0

    @given(
        lens=st.lists(st.integers(0, 6), min_size=1, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ragged_gather_property(self, lens, data):
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(lens)
        flat = np.arange(int(offsets[-1]), dtype=np.int64) * 3
        idx = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, len(lens) - 1), min_size=0, max_size=30
                )
            ),
            dtype=np.int64,
        )
        got = ragged_gather(offsets, flat, idx)
        ref = _ragged_gather_loop(offsets, flat, idx)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)


# -- fast-path authenticity --------------------------------------------------


def _pipeline():
    return PipelineSpec(
        nodes=(
            NodeSpec("a", service_time=1.0, gain=CensoredPoissonGain(1.2, 4)),
            NodeSpec("b", service_time=0.7, gain=BernoulliGain(0.8)),
            NodeSpec("c", service_time=0.5, gain=DeterministicGain(2)),
        ),
        vector_width=8,
    )


def _run(n_items=400, seed=0, **kw):
    sim = EnforcedWaitsSimulator(
        _pipeline(),
        np.asarray([3.0, 2.0, 1.5]),
        arrivals=PoissonArrivals(1.4),
        deadline=40.0,
        n_items=n_items,
        seed=seed,
        **kw,
    )
    return sim, sim.run()


_COMPARE_FIELDS = (
    "makespan",
    "active_fraction",
    "missed_items",
    "outputs",
    "mean_latency",
    "max_latency",
)


def _assert_same_metrics(ma, mb):
    for f in _COMPARE_FIELDS:
        a, b = getattr(ma, f), getattr(mb, f)
        if isinstance(a, float) and math.isnan(a) and math.isnan(b):
            continue
        assert a == b, f"{f}: {a!r} != {b!r}"
    assert np.array_equal(ma.firings, mb.firings)
    assert np.array_equal(ma.queue_hwm_vectors, mb.queue_hwm_vectors)


class TestFastPathAuthenticity:
    @pytest.mark.parametrize(
        "backend", [b for b in available_backends() if b != "python"]
    )
    def test_fast_backends_skip_the_event_loop(self, backend):
        with use_backend(backend):
            sim, _ = _run()
        assert sim.engine.events_processed == 0

    def test_python_backend_runs_the_event_loop(self):
        with use_backend("python"):
            sim, _ = _run()
        assert sim.engine.events_processed > 0

    @pytest.mark.parametrize(
        "backend", [b for b in available_backends() if b != "python"]
    )
    def test_forced_fallback_is_bit_identical(self, backend):
        with use_backend(backend):
            fast_sim, fast = _run()
        with use_backend("python"):
            slow_sim, slow = _run()
        assert fast_sim.engine.events_processed == 0
        assert slow_sim.engine.events_processed > 0
        _assert_same_metrics(fast, slow)
        # Queue-side statistics (read directly off the queue objects by
        # the overload calibration) must also agree.
        for qf, qs in zip(fast_sim.queues, slow_sim.queues):
            assert qf.max_depth == qs.max_depth
            assert qf.total_pushed == qs.total_pushed
            assert qf.total_popped == qs.total_popped

    @pytest.mark.slow
    def test_fast_path_is_three_times_the_event_path(self):
        # Wall-clock floor: best of three 5000-item runs on each path.
        if not get_backend().fastpath:
            pytest.skip(f"backend {get_backend().name!r} has no fast path")
        _run(n_items=500)
        with use_backend("python"):
            _run(n_items=500)
        fast_s = event_s = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fast_sim, _ = _run(n_items=5000)
            fast_s = min(fast_s, time.perf_counter() - t0)
            with use_backend("python"):
                t0 = time.perf_counter()
                _run(n_items=5000)
                event_s = min(event_s, time.perf_counter() - t0)
        assert fast_sim.engine.events_processed == 0
        assert event_s / fast_s >= 3.0

    def test_telemetry_forces_the_event_loop(self):
        with use_backend("vector"):
            sim, _ = _run(telemetry=True)
        assert sim.engine.events_processed > 0

    @given(
        w0=st.floats(0.0, 5.0, allow_nan=False),
        w1=st.floats(0.0, 5.0, allow_nan=False),
        w2=st.floats(0.0, 5.0, allow_nan=False),
        seed=st.integers(0, 2**16),
        n_items=st.integers(1, 250),
    )
    @settings(max_examples=25, deadline=None)
    def test_backend_equivalence_property(self, w0, w1, w2, seed, n_items):
        """vector ≡ python on randomized waits/seed/size — bit-identical."""
        waits = np.asarray([w0, w1, w2])
        kw = dict(
            arrivals=PoissonArrivals(1.4),
            deadline=30.0,
            n_items=n_items,
            seed=seed,
        )
        with use_backend("vector"):
            fast = EnforcedWaitsSimulator(_pipeline(), waits, **kw).run()
        with use_backend("python"):
            slow = EnforcedWaitsSimulator(_pipeline(), waits, **kw).run()
        _assert_same_metrics(fast, slow)
