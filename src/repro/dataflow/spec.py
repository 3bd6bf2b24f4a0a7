"""Immutable node and pipeline specifications.

:class:`NodeSpec` captures the paper's per-node parameters — service time
``t_i`` for one vector firing and the gain distribution with mean ``g_i``.
:class:`PipelineSpec` is an ordered chain of nodes plus the device vector
width ``v``, with the derived quantities the optimizations need:

- total gains ``G_i = prod_{j<i} g_j`` (expected items reaching node i per
  head-of-pipeline input);
- the asymptotic per-item SIMD cost ``sum_i G_i t_i / v`` (the monolithic
  strategy's large-``M`` active time per input, Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.dataflow.gains import DeterministicGain, GainDistribution, gain_from_mean
from repro.errors import SpecError
from repro.utils.mathx import cumprod_prefix
from repro.utils.validation import check_positive

__all__ = ["NodeSpec", "PipelineSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """One pipeline stage.

    Attributes
    ----------
    name:
        Unique label within its pipeline.
    service_time:
        ``t_i``: time to process one input vector (full or not), measured
        under the node's 1/N processor share (Section 2.2).
    gain:
        Output-multiplicity distribution; its mean is the paper's ``g_i``.
        The final node's gain does not affect optimization (its outputs
        leave the pipeline) but is still sampled by the simulator for
        completeness.
    """

    name: str
    service_time: float
    gain: GainDistribution = field(default_factory=lambda: DeterministicGain(1))

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"node name must be a non-empty string, got {self.name!r}")
        check_positive(f"service_time of node {self.name!r}", self.service_time)
        if not isinstance(self.gain, GainDistribution):
            raise SpecError(
                f"gain of node {self.name!r} must be a GainDistribution, "
                f"got {type(self.gain).__name__}"
            )

    @property
    def mean_gain(self) -> float:
        """The paper's ``g_i`` (average outputs per input)."""
        return self.gain.mean


@dataclass(frozen=True)
class PipelineSpec:
    """A linear chain of nodes executing on a ``v``-wide SIMD device."""

    nodes: tuple[NodeSpec, ...]
    vector_width: int

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) == 0:
            raise SpecError("a pipeline needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate node names in pipeline: {names}")
        v = self.vector_width
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise SpecError(f"vector_width must be an int >= 1, got {v!r}")
        object.__setattr__(self, "vector_width", int(v))

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_nodes(self) -> int:
        """The paper's ``N``."""
        return len(self.nodes)

    @cached_property
    def service_times(self) -> np.ndarray:
        """Vector of ``t_i``."""
        return np.asarray([n.service_time for n in self.nodes])

    @cached_property
    def mean_gains(self) -> np.ndarray:
        """Vector of ``g_i`` (the last entry included even if unused)."""
        return np.asarray([n.mean_gain for n in self.nodes])

    @cached_property
    def key_bytes(self) -> tuple[bytes, bytes]:
        """float64 bytes of ``t`` and ``g``: the pipeline's part of a plan-cache key."""
        return (
            np.asarray(self.service_times, dtype=float).tobytes(),
            np.asarray(self.mean_gains, dtype=float).tobytes(),
        )

    # -- paper's derived quantities ---------------------------------------

    @cached_property
    def total_gains(self) -> np.ndarray:
        """``G_i = prod_{j<i} g_j``; ``G_0 = 1`` (Section 2.1)."""
        return cumprod_prefix(self.mean_gains)

    @cached_property
    def per_item_cost(self) -> float:
        """Asymptotic active time per head-of-pipeline input.

        ``sum_i G_i * t_i / v``: the limit of ``Tbar(M)/M`` as the
        monolithic block size grows (Section 5); also the reciprocal of the
        fastest sustainable arrival rate for the monolithic strategy.
        """
        return float(np.dot(self.total_gains, self.service_times)) / self.vector_width

    @cached_property
    def min_periods(self) -> np.ndarray:
        """Smallest possible firing periods: ``t_i`` (zero wait)."""
        return self.service_times.copy()

    def node_index(self, name: str) -> int:
        """Index of the node named ``name``."""
        for i, node in enumerate(self.nodes):
            if node.name == name:
                return i
        raise SpecError(f"no node named {name!r} in pipeline")

    def with_vector_width(self, v: int) -> "PipelineSpec":
        """A copy of this pipeline on a device of different SIMD width."""
        return PipelineSpec(self.nodes, v)

    def describe(self) -> str:
        """Human-readable multi-line summary (Table 1 style)."""
        from repro.utils.tables import render_table

        rows = [
            (i, n.name, n.service_time, n.mean_gain, float(self.total_gains[i]))
            for i, n in enumerate(self.nodes)
        ]
        return render_table(
            ["node", "name", "t_i", "g_i", "G_i"],
            rows,
            title=f"pipeline (N={self.n_nodes}, v={self.vector_width})",
        )

    # -- convenience constructors -----------------------------------------

    @staticmethod
    def from_arrays(
        service_times: "np.ndarray | list[float]",
        mean_gains: "np.ndarray | list[float]",
        vector_width: int,
        *,
        expander_limit: int = 16,
        name_prefix: str = "n",
    ) -> "PipelineSpec":
        """Build a pipeline from ``t_i``/``g_i`` arrays with default gain models.

        Gains <= 1 become Bernoulli, gains > 1 become censored Poisson with
        ``expander_limit`` — the paper's Section 6.1 convention.
        """
        t = np.asarray(service_times, dtype=float)
        g = np.asarray(mean_gains, dtype=float)
        if t.ndim != 1 or g.ndim != 1 or t.size != g.size:
            raise SpecError(
                "service_times and mean_gains must be 1-D arrays of equal length"
            )
        nodes = tuple(
            NodeSpec(
                name=f"{name_prefix}{i}",
                service_time=float(t[i]),
                gain=gain_from_mean(float(g[i]), u=expander_limit),
            )
            for i in range(t.size)
        )
        return PipelineSpec(nodes, vector_width)
