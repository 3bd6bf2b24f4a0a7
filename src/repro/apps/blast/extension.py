"""Ungapped X-drop seed extension: BLAST's stage 2.

From a seed match, extend left and right accumulating +match/-mismatch
scores, stopping a direction when the running score drops more than
``xdrop`` below its running maximum; the extension's score is the sum of
the two directions' best scores plus the seed itself.

:func:`ungapped_extend` extends one seed and reports its extent;
:func:`ungapped_extend_scores` computes only the scores, for a whole
batch of seeds at once (the live kernels score their whole seed table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpecError

__all__ = ["ExtensionResult", "ungapped_extend", "ungapped_extend_scores"]

# The default +match/-mismatch scores; the batched scorer uses only these.
_MATCH, _MISMATCH = 1, -2
# Extension steps scored per batched round.  Most extensions stop within
# the first round, and a round costs mostly fixed NumPy call overhead.
_CHUNK = 64


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of one ungapped extension.

    ``q_start/q_end`` and ``d_start/d_end`` delimit the half-open aligned
    ranges; ``score`` uses the +match/-mismatch scheme.
    """

    score: int
    q_start: int
    q_end: int
    d_start: int
    d_end: int

    @property
    def length(self) -> int:
        return self.q_end - self.q_start


def _extend_dir(
    query: np.ndarray,
    database: np.ndarray,
    qpos: int,
    dpos: int,
    step: int,
    match: int,
    mismatch: int,
    xdrop: int,
) -> tuple[int, int]:
    """Best score and extent in one direction; returns (best_score, steps)."""
    score = 0
    best = 0
    best_steps = 0
    steps = 0
    q, d = qpos, dpos
    nq, nd = query.size, database.size
    while 0 <= q < nq and 0 <= d < nd:
        score += match if query[q] == database[d] else mismatch
        steps += 1
        if score > best:
            best = score
            best_steps = steps
        elif best - score > xdrop:
            break
        q += step
        d += step
    return best, best_steps


def ungapped_extend(
    query: np.ndarray,
    database: np.ndarray,
    qpos: int,
    dpos: int,
    k: int,
    *,
    match: int = _MATCH,
    mismatch: int = _MISMATCH,
    xdrop: int = 12,
) -> ExtensionResult:
    """Extend the exact seed ``query[qpos:qpos+k] == database[dpos:dpos+k]``.

    The seed contributes ``k * match``; left extension starts just before
    the seed and right extension just after it.
    """
    query = np.asarray(query, dtype=np.uint8)
    database = np.asarray(database, dtype=np.uint8)
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    if not 0 <= qpos <= query.size - k:
        raise SpecError(f"qpos {qpos} with k={k} outside query")
    if not 0 <= dpos <= database.size - k:
        raise SpecError(f"dpos {dpos} with k={k} outside database")
    left_score, left_steps = _extend_dir(
        query, database, qpos - 1, dpos - 1, -1, match, mismatch, xdrop
    )
    right_score, right_steps = _extend_dir(
        query, database, qpos + k, dpos + k, +1, match, mismatch, xdrop
    )
    return ExtensionResult(
        score=k * match + left_score + right_score,
        q_start=qpos - left_steps,
        q_end=qpos + k + right_steps,
        d_start=dpos - left_steps,
        d_end=dpos + k + right_steps,
    )


def ungapped_extend_scores(
    query: np.ndarray,
    database: np.ndarray,
    qpos: np.ndarray,
    dpos: np.ndarray,
    k: int,
    *,
    xdrop: int = 12,
) -> np.ndarray:
    """``ungapped_extend(...).score`` for every seed ``(qpos[j], dpos[j])``.

    Scores use :func:`ungapped_extend`'s default +1/-2 scheme.

    Returns an int64 array of scores; raises :class:`SpecError` for an
    out-of-range seed, as :func:`ungapped_extend` does, and for a
    negative ``xdrop``.

    Both directions of every seed are rows of one batch.  Each round
    scores the next ``_CHUNK`` steps of the rows still extending as
    prefix sums; with ``best`` the running maximum of ``0`` and the
    prefixes, a row stops at its first step more than ``xdrop`` below
    ``best``.  A step past a sequence edge scores ``-(xdrop + 1)``, so
    the edge stops the row and leaves ``best`` unchanged.
    """
    query = np.asarray(query, dtype=np.uint8)
    database = np.asarray(database, dtype=np.uint8)
    qpos = np.asarray(qpos, dtype=np.int64)
    dpos = np.asarray(dpos, dtype=np.int64)
    if k < 1:
        raise SpecError(f"k must be >= 1, got {k}")
    if xdrop < 0:
        raise SpecError(f"xdrop must be >= 0, got {xdrop}")
    bad_q = (qpos < 0) | (qpos > query.size - k)
    if bad_q.any():
        raise SpecError(f"qpos {qpos[bad_q][0]} with k={k} outside query")
    bad_d = (dpos < 0) | (dpos > database.size - k)
    if bad_d.any():
        raise SpecError(f"dpos {dpos[bad_d][0]} with k={k} outside database")
    n = qpos.size
    # Row r < n extends seed r leftwards, row n + r rightwards.
    q0 = np.concatenate((qpos - 1, qpos + k))
    d0 = np.concatenate((dpos - 1, dpos + k))
    way = np.repeat(np.asarray([-1, 1], dtype=np.int64), n)
    room = np.concatenate(
        (
            np.minimum(qpos, dpos),
            np.minimum(query.size - qpos - k, database.size - dpos - k),
        )
    )
    best = np.zeros(2 * n, dtype=np.int64)
    score = np.zeros(2 * n, dtype=np.int64)
    live = np.arange(2 * n)
    done = 0
    while live.size:
        j = np.arange(done, done + _CHUNK)
        offset = way[live, None] * j
        # Out-of-range reads are clipped and then overwritten as edges.
        same = np.take(query, q0[live, None] + offset, mode="clip") == np.take(
            database, d0[live, None] + offset, mode="clip"
        )
        steps = np.where(same, _MATCH, _MISMATCH)
        steps[j >= room[live, None]] = -(xdrop + 1)
        prefix = np.cumsum(steps, axis=1)
        prefix += score[live, None]
        running = np.maximum(
            np.maximum.accumulate(prefix, axis=1), best[live, None]
        )
        drop = running - prefix > xdrop
        stopped = drop.any(axis=1)
        last = np.where(stopped, drop.argmax(axis=1), _CHUNK - 1)
        best[live] = running[np.arange(live.size), last]
        score[live] = prefix[:, -1]
        live = live[~stopped]
        done += _CHUNK
    return k * _MATCH + best[:n] + best[n:]
