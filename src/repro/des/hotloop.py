"""Backend-dispatched primitives of the DES/kernel hot loops.

Three small kernels carry most of the per-event work of the
enforced-waits simulator and the runtime app kernels:

- :func:`firing_schedule` — a node's firing-start and completion times.
  Under idealized timing the event loop computes the strict recurrence
  ``c_k = f_k + t``, ``f_{k+1} = c_k + w`` one float add at a time;
  ``np.add.accumulate`` over the interleaved step array ``[f0, t, w, t,
  w, ...]`` performs *the same adds in the same order*, so the arrays
  are bit-identical to the loop — not merely close.
- :func:`consumed_scan` — cumulative items consumed by a width-``v``
  node given how many inputs are available at each firing.  The queue
  recurrence ``C_k = C_{k-1} + min(v, A_k - C_{k-1})`` has the closed
  form ``C_k = min(v*(k+1), v*k + min_{j<=k}(A_j - v*j))`` (a Lindley
  recursion), evaluated with one ``np.minimum.accumulate`` in exact
  int64 arithmetic.
- :func:`gather_segments` — concatenate the segments
  ``flat[begins[j]:begins[j]+counts[j]]`` (the runtime expander
  kernels' inner loop); :func:`ragged_gather` is its CSR form,
  gathering ``flat[offsets[i]:offsets[i+1]]`` for a batch of indices.

Each primitive has a NumPy implementation and, when the active
:mod:`repro.simd.backend` is ``numba``, a JIT-compiled twin performing
the identical arithmetic (sequential adds, exact integer scans) so
results never depend on the backend.  A numba import/compile failure
demotes the backend to ``vector`` and keeps going.
"""

from __future__ import annotations

import numpy as np

from repro.simd.backend import demote_backend, get_backend

__all__ = ["firing_schedule", "consumed_scan", "gather_segments", "ragged_gather"]


# -- NumPy implementations ---------------------------------------------------


def _firing_schedule_np(
    f0: float, t: float, w: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    steps = np.empty(2 * k, dtype=np.float64)
    steps[0] = f0
    steps[1::2] = t
    steps[2::2] = w
    acc = np.add.accumulate(steps)
    return np.ascontiguousarray(acc[0::2]), np.ascontiguousarray(acc[1::2])


def _consumed_scan_np(avail: np.ndarray, v: int) -> np.ndarray:
    k = avail.shape[0]
    idx = np.arange(k, dtype=np.int64)
    slack = np.minimum.accumulate(avail - v * idx)
    return np.minimum(v * (idx + 1), v * idx + slack)


def _gather_positions_np(begins: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - seg_starts + np.repeat(
        begins, counts
    )


# -- numba twins -------------------------------------------------------------

_numba_impls: dict | None = None


def _build_numba() -> dict:
    import numba  # deferred: optional dependency

    @numba.njit(cache=False)
    def firing_schedule_nb(f0, t, w, k):  # pragma: no cover — needs numba
        fires = np.empty(k, dtype=np.float64)
        comps = np.empty(k, dtype=np.float64)
        f = f0
        for i in range(k):
            fires[i] = f
            c = f + t
            comps[i] = c
            f = c + w
        return fires, comps

    @numba.njit(cache=False)
    def consumed_scan_nb(avail, v):  # pragma: no cover — needs numba
        k = avail.shape[0]
        out = np.empty(k, dtype=np.int64)
        c = np.int64(0)
        for i in range(k):
            take = avail[i] - c
            if take > v:
                take = v
            if take < 0:
                take = 0
            c += take
            out[i] = c
        return out

    @numba.njit(cache=False)
    def gather_positions_nb(begins, counts):  # pragma: no cover — needs numba
        total = np.int64(0)
        for i in range(counts.shape[0]):
            total += counts[i]
        pos = np.empty(total, dtype=np.int64)
        o = 0
        for i in range(counts.shape[0]):
            b = begins[i]
            for j in range(counts[i]):
                pos[o] = b + j
                o += 1
        return pos

    # Warm the compile on trivial inputs so a compilation failure
    # surfaces here (where the caller can demote) and not mid-run.
    firing_schedule_nb(0.0, 1.0, 1.0, 1)
    consumed_scan_nb(np.zeros(1, dtype=np.int64), 1)
    gather_positions_nb(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    return {
        "firing_schedule": firing_schedule_nb,
        "consumed_scan": consumed_scan_nb,
        "gather_positions": gather_positions_nb,
    }


def _impls() -> dict | None:
    """The numba kernel table when the numba backend is active, else None."""
    global _numba_impls
    if not get_backend().compiled:
        return None
    if _numba_impls is None:
        try:
            _numba_impls = _build_numba()
        except Exception as exc:  # pragma: no cover — needs broken numba
            demote_backend(f"numba kernel compilation failed: {exc!r}")
            return None
    return _numba_impls


# -- public dispatchers ------------------------------------------------------


def firing_schedule(
    f0: float, t: float, w: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """First ``k`` firing starts and completions of one node.

    ``fires[0] = f0``; ``comps[i] = fires[i] + t``;
    ``fires[i+1] = comps[i] + w``.  Bit-identical to the event loop's
    one-add-at-a-time recurrence (see module docstring).
    """
    if k <= 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    nb = _impls()
    if nb is not None:
        return nb["firing_schedule"](float(f0), float(t), float(w), int(k))
    return _firing_schedule_np(float(f0), float(t), float(w), int(k))


def consumed_scan(avail: np.ndarray, v: int) -> np.ndarray:
    """Cumulative consumption ``C_k`` of a width-``v`` node.

    ``avail[k]`` is the number of inputs that have *ever* been available
    by firing ``k`` (a nondecreasing int64 array); the node pops
    ``min(v, avail[k] - C_{k-1})`` at each firing.
    """
    avail = np.ascontiguousarray(avail, dtype=np.int64)
    if avail.size == 0:
        return np.empty(0, dtype=np.int64)
    nb = _impls()
    if nb is not None:
        return nb["consumed_scan"](avail, np.int64(v))
    return _consumed_scan_np(avail, int(v))


def gather_segments(
    flat: np.ndarray, begins: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenate ``flat[begins[j] : begins[j] + counts[j]]`` over ``j``.

    Gathers along axis 0, so ``flat`` may hold multi-column rows.
    """
    begins = np.ascontiguousarray(begins, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    nb = _impls()
    if nb is not None:
        pos = nb["gather_positions"](begins, counts)
    else:
        pos = _gather_positions_np(begins, counts)
    return np.asarray(flat)[pos]


def ragged_gather(
    offsets: np.ndarray, flat: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather segments ``flat[offsets[i]:offsets[i+1]]`` for ``i`` in ``idx``.

    Returns ``(counts, owners, values)``: per-index segment lengths, the
    index repeated per element, and the concatenated segment values —
    the vectorized form of the append-per-item loop the runtime
    pair-expansion kernels previously ran.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    begins = offsets[idx]
    counts = offsets[idx + 1] - begins
    owners = np.repeat(idx, counts)
    return counts, owners, gather_segments(flat, begins, counts)
