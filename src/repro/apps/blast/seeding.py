"""k-mer seeding: BLAST's first two stages.

A :class:`KmerIndex` hashes every k-mer of the query.  Streaming database
*windows* are the pipeline's input items: stage 0 asks "does this window
contain any seed?" (a filter) and stage 1 enumerates the individual seed
matches in a hit window (the expander — one window can fan out into many
query/database position pairs, which is precisely the irregularity the
paper's expander node models).

:meth:`KmerIndex.seed_table` precomputes every seed of a whole database
at once, so the live kernels answer both stage questions for a batch of
windows with array lookups; :meth:`KmerIndex.has_seed` and
:meth:`KmerIndex.window_seeds` remain the per-window reference.
"""

from __future__ import annotations

import numpy as np

from repro.des.hotloop import gather_segments
from repro.errors import SpecError

__all__ = ["KmerIndex", "pack_kmers"]


def pack_kmers(seq: np.ndarray, k: int) -> np.ndarray:
    """Base-4 packed integer codes of every k-mer of ``seq``.

    Returns an int64 array of length ``len(seq) - k + 1`` (empty when the
    sequence is shorter than ``k``).  k is limited to 31 to fit int64.
    """
    if not 1 <= k <= 31:
        raise SpecError(f"k must be in [1, 31], got {k}")
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size < k:
        return np.empty(0, dtype=np.int64)
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(seq, k)
    return windows @ weights


class KmerIndex:
    """Exact-match k-mer index of a query sequence."""

    def __init__(self, query: np.ndarray, k: int = 11) -> None:
        query = np.asarray(query, dtype=np.uint8)
        if query.size < k:
            raise SpecError(
                f"query of length {query.size} is shorter than k={k}"
            )
        self.k = int(k)
        self.query_length = int(query.size)
        codes = pack_kmers(query, k)
        self._codes = codes
        index: dict[int, list[int]] = {}
        for pos, code in enumerate(codes):
            index.setdefault(int(code), []).append(pos)
        self._index = index

    @property
    def distinct_kmers(self) -> int:
        return len(self._index)

    def lookup(self, code: int) -> list[int]:
        """Query positions whose k-mer has this packed code."""
        return self._index.get(int(code), [])

    def window_seeds(
        self, database: np.ndarray, start: int, length: int
    ) -> list[tuple[int, int]]:
        """All seed matches ``(query_pos, db_pos)`` in a database window.

        The window is ``database[start : start + length]``; k-mers
        straddling the window end are attributed to the window containing
        their first base, so consecutive windows tile the database without
        double counting.
        """
        database = np.asarray(database, dtype=np.uint8)
        if not 0 <= start < database.size:
            raise SpecError(
                f"window start {start} outside database of length "
                f"{database.size}"
            )
        end = min(start + length, database.size - self.k + 1)
        if end <= start:
            return []
        codes = pack_kmers(database[start : end + self.k - 1], self.k)
        seeds: list[tuple[int, int]] = []
        for offset, code in enumerate(codes):
            for qpos in self._index.get(int(code), ()):
                seeds.append((qpos, start + offset))
        return seeds

    def has_seed(self, database: np.ndarray, start: int, length: int) -> bool:
        """Stage-0 predicate: does the window contain any seed?"""
        database = np.asarray(database, dtype=np.uint8)
        end = min(start + length, database.size - self.k + 1)
        if end <= start:
            return False
        codes = pack_kmers(database[start : end + self.k - 1], self.k)
        return any(int(c) in self._index for c in codes)

    def seed_table(self, database: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every seed of ``database`` as a CSR table over database positions.

        Returns ``(offsets, pairs)``: the seeds whose database k-mer
        starts at position ``p`` are ``pairs[offsets[p]:offsets[p + 1]]``,
        int64 ``(query_pos, db_pos)`` rows with ascending ``query_pos``.
        ``offsets`` has one entry per database k-mer plus one, so the
        seeds of window ``[start, end)`` (both clipped to the number of
        k-mers) are ``pairs[offsets[start]:offsets[end]]`` — exactly
        :meth:`window_seeds`, in its order.
        """
        database = np.asarray(database, dtype=np.uint8)
        order = np.argsort(self._codes, kind="stable")
        sorted_codes = self._codes[order]
        db_codes = pack_kmers(database, self.k)
        lo = np.searchsorted(sorted_codes, db_codes, side="left")
        counts = np.searchsorted(sorted_codes, db_codes, side="right") - lo
        offsets = np.zeros(db_codes.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pairs = np.empty((int(offsets[-1]), 2), dtype=np.int64)
        pairs[:, 0] = gather_segments(order, lo, counts)
        pairs[:, 1] = np.repeat(np.arange(db_codes.size, dtype=np.int64), counts)
        return offsets, pairs
