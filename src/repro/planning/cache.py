"""Content-addressed plan cache for enforced-waits solutions.

Every sweep, campaign, and experiment in this repo re-solves the Figure 1
optimization for configurations it has already seen — the paper solves
these optimizations *offline per configuration*, so the repo's serving
layer can amortize them the same way.  This module provides:

- **Deterministic cache keys** (:func:`plan_key`) from the canonicalized
  planning-relevant projection of a configuration: service times ``t_i``,
  mean gains ``g_i``, vector width ``v``, arrival period ``tau0``
  (equivalently ``rho_0``), deadline ``D``, worst-case multipliers ``b``,
  solver method, and feasibility tolerance.  Floats are canonicalized via
  ``float.hex()`` (so ``0.1``, ``1e-1`` and a NumPy scalar of the same
  value key identically) and payloads are serialized with sorted keys (so
  field order never matters).  Node *names* deliberately do not enter the
  key: the optimizer sees only ``(t, g, v)``.
- A **shape key** (:func:`shape_key`) that drops ``tau0``/``D`` — two
  configurations share a shape iff they pose the same optimization over a
  different operating point, which is exactly the near-miss condition the
  warm-start layer (:mod:`repro.planning.warmstart`) exploits.
- :class:`PlanCache` — an in-memory LRU keyed by :func:`plan_key`,
  optionally backed by an **on-disk JSON store** with a versioned schema
  and corruption-tolerant loads (a truncated, garbage, or wrong-version
  file silently degrades to a cold cache; individually malformed entries
  are skipped and counted).  Hit/miss/eviction/warm-start/coalescing
  counters are kept in :class:`CacheStats` and surfaced through
  :class:`repro.obs.telemetry.PlanCacheTelemetry`.

JSON float round-trips are exact: ``json`` serializes floats with
shortest-roundtrip ``repr``, so a solution loaded from disk is
bit-identical to the one stored.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.enforced_waits import EnforcedWaitsSolution
from repro.core.model import RealTimeProblem
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.spec import PipelineSpec
from repro.errors import SpecError
from repro.obs.telemetry import PlanCacheTelemetry

__all__ = [
    "SCHEMA_VERSION",
    "CacheStats",
    "PlanCache",
    "dag_plan_key",
    "dag_plan_payload",
    "dag_shape_key",
    "dag_shape_payload",
    "plan_key",
    "shape_key",
    "plan_payload",
    "shape_payload",
    "solution_to_dict",
    "solution_from_dict",
]

SCHEMA_VERSION = 1
"""On-disk store schema version; files with any other version are ignored."""

_DEFAULT_TOL = 1e-9


def _canon_float(x: Any) -> str:
    """Canonical text for a float: exact, format-independent.

    ``-0.0`` is collapsed onto ``0.0`` before hashing — the two compare
    equal everywhere a plan parameter is *used*, but ``float.hex()``
    spells them differently (``-0x0.0p+0`` vs ``0x0.0p+0``), which
    would split one configuration across two cache keys.  NaN is
    rejected outright: it never equals itself, so no key containing it
    could ever be deliberately re-hit, and its presence in a planning
    payload is always an upstream bug worth surfacing.
    """
    v = float(x)
    if math.isnan(v):
        raise SpecError("plan-cache keys cannot contain NaN parameters")
    if v == 0.0:
        v = 0.0
    return v.hex()


def _canon_floats(xs: Any) -> list[str]:
    return [_canon_float(x) for x in np.asarray(xs, dtype=float).ravel()]


def _shape_args(
    pipeline: PipelineSpec, b: np.ndarray, method: str, tol: float
) -> tuple:
    """The raw, hashable inputs of a shape payload (float64 bytes)."""
    b = np.asarray(b, dtype=float)
    if b.shape != (pipeline.n_nodes,):
        raise SpecError(
            f"b must have length {pipeline.n_nodes}, got shape {b.shape}"
        )
    return (
        *pipeline.key_bytes,
        int(pipeline.vector_width),
        b.tobytes(),
        str(method),
        float(tol),
    )


@functools.lru_cache(maxsize=1024)
def _canon_shape(
    t: bytes, g: bytes, v: int, b: bytes, method: str, tol: float
) -> dict:
    """The canonical shape payload of :func:`_shape_args`, memoized.

    The lists are tuples, which JSON encodes identically, so the shared
    memo entry cannot be mutated through a returned payload.
    """
    return {
        "schema": SCHEMA_VERSION,
        "t": tuple(_canon_floats(np.frombuffer(t))),
        "g": tuple(_canon_floats(np.frombuffer(g))),
        "v": v,
        "b": tuple(_canon_floats(np.frombuffer(b))),
        "method": method,
        "tol": _canon_float(tol),
    }


def shape_payload(
    pipeline: PipelineSpec,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> dict:
    """The operating-point-free part of a plan key (see module docstring).

    Only the planning-relevant projection of the spec enters: ``t_i``,
    mean ``g_i``, and ``v``.  Two pipelines whose gain *distributions*
    differ but whose means agree pose the same Figure 1 problem and
    share a plan.
    """
    return dict(_canon_shape(*_shape_args(pipeline, b, method, tol)))


def plan_payload(
    problem: RealTimeProblem,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> dict:
    """Full canonical payload: shape plus the ``(tau0, D)`` operating point."""
    payload = shape_payload(problem.pipeline, b, method=method, tol=tol)
    payload["tau0"] = _canon_float(problem.tau0)
    payload["deadline"] = _canon_float(problem.deadline)
    return payload


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


# Keys are pure functions of their arguments, and planning requests repeat
# a few shapes at many operating points, so both digests are memoized on
# the raw inputs; a cache hit then costs no canonicalization or hashing.


@functools.lru_cache(maxsize=1024)
def _plan_json_parts(shape: tuple) -> tuple[str, str, str]:
    """A shape's canonical plan JSON, split around its operating point.

    Sorted keys put ``deadline`` before ``tau0``, and hex floats need no
    escaping, so splicing the two quoted values between the parts yields
    the exact bytes of :func:`plan_payload`'s JSON without encoding the
    shape again.
    """
    blob = _canonical_json(dict(_canon_shape(*shape), deadline="\0", tau0="\1"))
    head, rest = blob.split('"\\u0000"')
    middle, tail = rest.split('"\\u0001"')
    return head, middle, tail


@functools.lru_cache(maxsize=4096)
def _plan_digest(shape: tuple, tau0: float, deadline: float) -> str:
    head, middle, tail = _plan_json_parts(shape)
    blob = f'{head}"{_canon_float(deadline)}"{middle}"{_canon_float(tau0)}"{tail}'
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=1024)
def _shape_digest(shape: tuple) -> str:
    return _digest(_canon_shape(*shape))


def plan_key(
    problem: RealTimeProblem,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> str:
    """Deterministic content hash of a planning configuration."""
    return _plan_digest(
        _shape_args(problem.pipeline, b, method, tol),
        float(problem.tau0),
        float(problem.deadline),
    )


def shape_key(
    pipeline: PipelineSpec,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> str:
    """Content hash of the configuration *without* its operating point."""
    return _shape_digest(_shape_args(pipeline, b, method, tol))


# -- DAG keys ---------------------------------------------------------------


def dag_shape_payload(
    graph: DataflowGraph,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> dict:
    """The operating-point-free payload of a DAG planning configuration.

    A **chain-shaped** graph delegates to :func:`shape_payload` on its
    folded :meth:`~repro.dataflow.graph.DataflowGraph.as_chain` spec, so
    it keys *identically* to the equivalent ``PipelineSpec``
    configuration — chain plans are shared between the two APIs and
    pre-existing chain keys are unchanged.  Branching graphs add the
    edge list ``(u_idx, d_idx, mean_gain)`` over topological indices
    (names never enter the key, matching the chain convention).
    """
    if graph.is_chain():
        return shape_payload(graph.as_chain(), b, method=method, tol=tol)
    order = tuple(graph.topological_order())
    pos = {name: i for i, name in enumerate(order)}
    b = np.asarray(b, dtype=float)
    if b.shape != (graph.n_nodes,):
        raise SpecError(
            f"b must have length {graph.n_nodes}, got shape {b.shape}"
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "dag",
        "t": _canon_floats(
            [graph.spec(n).service_time for n in order]
        ),
        "g": _canon_floats([graph.spec(n).gain.mean for n in order]),
        "edges": [
            [pos[u], pos[d], _canon_float(graph.edge_mean_gain(u, d))]
            for u, d in graph.edges()
        ],
        "v": int(graph.vector_width),
        "b": _canon_floats(b),
        "method": str(method),
        "tol": _canon_float(tol),
    }


def dag_plan_payload(
    problem,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> dict:
    """Full canonical DAG payload: shape plus ``(tau0, D)``.

    ``problem`` is a :class:`~repro.core.dag.DagRealTimeProblem`.
    """
    payload = dag_shape_payload(problem.graph, b, method=method, tol=tol)
    payload["tau0"] = _canon_float(problem.tau0)
    payload["deadline"] = _canon_float(problem.deadline)
    return payload


def dag_plan_key(
    problem,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> str:
    """Content hash of a DAG planning configuration.

    Chain-shaped graphs hash identically to :func:`plan_key` on the
    equivalent :class:`~repro.core.model.RealTimeProblem`.
    """
    return _digest(dag_plan_payload(problem, b, method=method, tol=tol))


def dag_shape_key(
    graph: DataflowGraph,
    b: np.ndarray,
    *,
    method: str = "auto",
    tol: float = _DEFAULT_TOL,
) -> str:
    """Content hash of a DAG configuration without its operating point."""
    return _digest(dag_shape_payload(graph, b, method=method, tol=tol))


# -- solution (de)serialization -------------------------------------------


def solution_to_dict(sol: EnforcedWaitsSolution) -> dict:
    """A JSON-serializable dict of an :class:`EnforcedWaitsSolution`.

    The attached ``solver_result`` is deliberately dropped: it holds
    per-solve diagnostics (iteration counts, fallback trails) that are
    not part of the plan.
    """
    return {
        "feasible": bool(sol.feasible),
        "periods": [float(x) for x in sol.periods],
        "waits": [float(x) for x in sol.waits],
        "active_fraction": float(sol.active_fraction),
        "node_utilizations": [float(x) for x in sol.node_utilizations],
        "binding": list(sol.binding),
        "method": sol.method,
        "diagnosis": sol.diagnosis,
    }


def solution_from_dict(d: dict) -> EnforcedWaitsSolution:
    """Rebuild a solution stored by :func:`solution_to_dict`."""
    return EnforcedWaitsSolution(
        feasible=bool(d["feasible"]),
        periods=np.asarray(d["periods"], dtype=float),
        waits=np.asarray(d["waits"], dtype=float),
        active_fraction=float(d["active_fraction"]),
        node_utilizations=np.asarray(d["node_utilizations"], dtype=float),
        binding=tuple(d.get("binding", ())),
        method=str(d.get("method", "")),
        diagnosis=d.get("diagnosis"),
    )


# -- the cache -------------------------------------------------------------


@dataclass
class CacheStats:
    """Mutable counters of one :class:`PlanCache`'s lifetime."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    warm_hits: int = 0
    warm_rejects: int = 0
    stores: int = 0
    evictions: int = 0
    coalesced: int = 0
    disk_entries_loaded: int = 0
    disk_load_errors: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")


@dataclass
class _Entry:
    solution: EnforcedWaitsSolution
    shape: str | None = None
    meta: dict = field(default_factory=dict)


class PlanCache:
    """LRU plan cache with an optional on-disk JSON store.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least recently used entry is
        evicted beyond it.
    path:
        Optional JSON store.  Loaded (tolerantly) at construction;
        written by :meth:`flush`.  A missing, corrupted, truncated, or
        wrong-schema file never raises — the cache just starts cold and
        counts the problem in ``stats.disk_load_errors``.
    """

    def __init__(self, capacity: int = 256, path: str | os.PathLike | None = None) -> None:
        if capacity < 1:
            raise SpecError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.path = os.fspath(path) if path is not None else None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._by_shape: dict[str, str] = {}
        if self.path is not None:
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- core operations ---------------------------------------------------

    def get(self, key: str) -> EnforcedWaitsSolution | None:
        """The cached solution for ``key``, counting a hit or a miss."""
        self.stats.requests += 1
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.solution

    def put(
        self,
        key: str,
        solution: EnforcedWaitsSolution,
        *,
        shape: str | None = None,
        meta: dict | None = None,
    ) -> None:
        """Store ``solution`` under ``key``, evicting LRU entries if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(solution, shape, dict(meta or {}))
        self.stats.stores += 1
        if shape is not None and solution.feasible:
            self._by_shape[shape] = key
        while len(self._entries) > self.capacity:
            old_key, old = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if old.shape is not None and self._by_shape.get(old.shape) == old_key:
                del self._by_shape[old.shape]

    def nearest_by_shape(self, shape: str) -> EnforcedWaitsSolution | None:
        """The most recently stored *feasible* solution sharing ``shape``.

        This is the warm-start seed lookup: same optimization structure,
        (possibly) different operating point.  Does not count as a hit
        or a miss — the caller still resolves the exact key.
        """
        key = self._by_shape.get(shape)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:  # pragma: no cover — evictions keep the map clean
            del self._by_shape[shape]
            return None
        return entry.solution

    def clear(self) -> None:
        """Drop all entries (statistics are retained)."""
        self._entries.clear()
        self._by_shape.clear()

    # -- disk store --------------------------------------------------------

    def _load(self) -> None:
        """Tolerantly load the on-disk store; never raises."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.disk_load_errors += 1
            return
        if not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION:
            self.stats.disk_load_errors += 1
            return
        entries = raw.get("entries")
        if not isinstance(entries, list):
            self.stats.disk_load_errors += 1
            return
        for item in entries:
            try:
                key = item["key"]
                solution = solution_from_dict(item["solution"])
                shape = item.get("shape")
                meta = item.get("meta", {})
                if not isinstance(key, str):
                    raise TypeError("key must be a string")
            except Exception:
                self.stats.disk_load_errors += 1
                continue
            self.put(key, solution, shape=shape, meta=meta)
            self.stats.disk_entries_loaded += 1
        # Loading is not "storing" from the caller's point of view.
        self.stats.stores -= self.stats.disk_entries_loaded

    def flush(self) -> str:
        """Write the store atomically (tmp file + rename); returns the path."""
        if self.path is None:
            raise SpecError("this PlanCache has no on-disk path")
        payload = {
            "schema": SCHEMA_VERSION,
            "entries": [
                {
                    "key": key,
                    "shape": entry.shape,
                    "meta": entry.meta,
                    "solution": solution_to_dict(entry.solution),
                }
                for key, entry in self._entries.items()
            ],
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return self.path

    # -- observability -----------------------------------------------------

    def telemetry(self) -> PlanCacheTelemetry:
        """The counters frozen as a :class:`PlanCacheTelemetry`."""
        s = self.stats
        return PlanCacheTelemetry(
            entries=len(self._entries),
            capacity=self.capacity,
            requests=s.requests,
            hits=s.hits,
            misses=s.misses,
            warm_hits=s.warm_hits,
            warm_rejects=s.warm_rejects,
            stores=s.stores,
            evictions=s.evictions,
            coalesced=s.coalesced,
            disk_entries_loaded=s.disk_entries_loaded,
            disk_load_errors=s.disk_load_errors,
        )
