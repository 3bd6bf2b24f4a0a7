"""First-class dataflow-graph pipeline specifications.

The paper's applications are linear pipelines, but MERCATOR-style
frameworks support general DAGs with fan-out (one node feeding several
successors) and fan-in (several streams merging into one node).
:class:`DataflowGraph` is the first-class spec for such pipelines:

- nodes are :class:`~repro.dataflow.spec.NodeSpec` instances;
- edges carry their own :class:`~repro.dataflow.gains.GainDistribution`
  (defaulting to the source node's distribution, which reproduces the
  chain convention where node ``i``'s gain governs the ``i -> i+1``
  edge);
- :meth:`validate` certifies the single-source acyclic connected shape
  the optimizations assume;
- :meth:`total_gain_into` computes the DAG generalization of the
  paper's total gain ``G_i``: the sum over all source->node paths of
  the product of edge gains along the path;
- :meth:`source_sink_paths` enumerates the source->sink paths that
  carry the per-sink deadline constraints.

A graph that is in fact a chain can be certified and converted to a
:class:`~repro.dataflow.spec.PipelineSpec` with :meth:`as_chain`, which
the chain-only optimizers in :mod:`repro.core` require; the DAG
optimizer (:mod:`repro.core.dag`) consumes the graph directly.
"""

from __future__ import annotations

import dataclasses
import heapq

from repro.dataflow.gains import GainDistribution
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SpecError

__all__ = ["DataflowGraph"]

# Per-sink deadline constraints enumerate simple source->sink paths; a
# dense DAG can have exponentially many.  Refuse clearly past this cap
# rather than hanging in path enumeration.
_MAX_PATHS = 4096


class DataflowGraph:
    """A DAG of named dataflow nodes with single-source streaming semantics."""

    def __init__(self, vector_width: int) -> None:
        if vector_width < 1:
            raise SpecError(f"vector_width must be >= 1, got {vector_width}")
        self.vector_width = int(vector_width)
        self._specs: dict[str, NodeSpec] = {}
        # Adjacency in both directions; an edge maps to its explicit gain
        # (``None`` = inherit the source node's gain).
        self._succ: dict[str, dict[str, GainDistribution | None]] = {}
        self._pred: dict[str, dict[str, GainDistribution | None]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, spec: NodeSpec) -> None:
        """Register a node; names must be unique."""
        if not isinstance(spec, NodeSpec):
            raise SpecError(f"expected NodeSpec, got {type(spec).__name__}")
        if spec.name in self._specs:
            raise SpecError(f"duplicate node {spec.name!r}")
        self._specs[spec.name] = spec
        self._succ[spec.name] = {}
        self._pred[spec.name] = {}

    def add_edge(
        self, src: str, dst: str, gain: GainDistribution | None = None
    ) -> None:
        """Connect ``src -> dst``; both must exist and no cycle may form.

        ``gain`` is the output-multiplicity distribution applied to items
        leaving ``src`` along this edge.  ``None`` (the default) inherits
        ``src``'s node gain — the chain convention.  An explicit
        distribution lets fan-out edges split or replicate a stream
        unevenly.
        """
        for name in (src, dst):
            if name not in self._specs:
                raise SpecError(f"unknown node {name!r}")
        if src == dst:
            raise SpecError(f"self-loop on {src!r} is not allowed")
        if dst in self._succ[src]:
            raise SpecError(f"duplicate edge {src!r}->{dst!r}")
        if gain is not None and not isinstance(gain, GainDistribution):
            raise SpecError(
                f"gain of edge {src!r}->{dst!r} must be a GainDistribution, "
                f"got {type(gain).__name__}"
            )
        if self._reaches(dst, src):
            raise SpecError(f"edge {src!r}->{dst!r} would create a cycle")
        self._succ[src][dst] = gain
        self._pred[dst][src] = gain

    def _reaches(self, start: str, goal: str) -> bool:
        """True iff a directed path leads from ``start`` to ``goal``."""
        seen, frontier = {start}, [start]
        while frontier:
            n = frontier.pop()
            if n == goal:
                return True
            for s in self._succ[n]:
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return False

    # -- queries ------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._specs)

    @property
    def n_edges(self) -> int:
        return sum(len(succs) for succs in self._succ.values())

    def spec(self, name: str) -> NodeSpec:
        """The :class:`NodeSpec` registered under ``name``."""
        try:
            return self._specs[name]
        except KeyError as exc:
            raise SpecError(f"unknown node {name!r}") from exc

    def edge_gain(self, src: str, dst: str) -> GainDistribution:
        """The gain distribution on ``src -> dst`` (inherited or explicit)."""
        try:
            explicit = self._succ[src][dst]
        except KeyError as exc:
            raise SpecError(f"no edge {src!r}->{dst!r}") from exc
        return self.spec(src).gain if explicit is None else explicit

    def edge_gain_is_inherited(self, src: str, dst: str) -> bool:
        """True iff the edge uses its source node's gain distribution."""
        try:
            return self._succ[src][dst] is None
        except KeyError as exc:
            raise SpecError(f"no edge {src!r}->{dst!r}") from exc

    def edge_mean_gain(self, src: str, dst: str) -> float:
        """Mean of :meth:`edge_gain` — the DAG analogue of ``g_i``."""
        return self.edge_gain(src, dst).mean

    def sources(self) -> list[str]:
        """Nodes with no predecessors (stream entry points)."""
        return [n for n, preds in self._pred.items() if not preds]

    def sinks(self) -> list[str]:
        """Nodes with no successors (stream exit points)."""
        return [n for n, succs in self._succ.items() if not succs]

    def predecessors(self, name: str) -> list[str]:
        """Predecessors of ``name`` in deterministic (topological) order."""
        pos = {n: i for i, n in enumerate(self.topological_order())}
        if name not in pos:
            raise SpecError(f"unknown node {name!r}")
        return sorted(self._pred[name], key=pos.__getitem__)

    def successors(self, name: str) -> list[str]:
        """Successors of ``name`` in deterministic (topological) order."""
        pos = {n: i for i, n in enumerate(self.topological_order())}
        if name not in pos:
            raise SpecError(f"unknown node {name!r}")
        return sorted(self._succ[name], key=pos.__getitem__)

    def topological_order(self) -> list[str]:
        """Node names in the lexicographically smallest topological order.

        Kahn's algorithm with the ready set kept as a heap of names.
        """
        indegree = {n: len(preds) for n, preds in self._pred.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for s in self._succ[n]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(ready, s)
        return order

    def edges(self) -> list[tuple[str, str]]:
        """All edges ``(src, dst)`` in deterministic (topological) order."""
        pos = {n: i for i, n in enumerate(self.topological_order())}
        return sorted(
            ((a, b) for a, succs in self._succ.items() for b in succs),
            key=lambda e: (pos[e[0]], pos[e[1]]),
        )

    # -- validation ---------------------------------------------------------

    def validate(self) -> "DataflowGraph":
        """Certify the single-source acyclic connected DAG shape.

        Raises :class:`SpecError` with an actionable message when the
        graph is empty or has zero or multiple sources.  Acyclicity is
        already enforced edge-by-edge at construction, and an acyclic
        graph with one source is connected: every node descends from
        it.  Returns ``self`` so calls can chain.
        """
        if self.n_nodes == 0:
            raise SpecError(
                "dataflow graph is empty; add nodes with add_node() and "
                "connect them with add_edge()"
            )
        srcs = self.sources()
        if len(srcs) == 0:  # pragma: no cover - impossible while acyclic
            raise SpecError("dataflow graph has no source node")
        if len(srcs) > 1:
            raise SpecError(
                f"dataflow graph has {len(srcs)} sources {sorted(srcs)}; "
                "streaming semantics require exactly one entry node — merge "
                "the extra sources under a single head node or remove them"
            )
        return self

    def single_source(self) -> str:
        """The unique source node name (validates first)."""
        return self.validate().sources()[0]

    # -- derived quantities --------------------------------------------------

    def total_gains(self) -> dict[str, float]:
        """``G_i`` for every node: expected items reaching it per source input.

        The DAG generalization of the paper's total gain: the sum over
        all source->node paths of the product of *edge* gains along the
        path.  At a fan-in node the per-predecessor contributions add;
        along a path the edge gains multiply.  For a chain this reduces
        to ``G_i = prod_{j<i} g_j`` exactly.
        """
        order = self.topological_order()
        flow = {n: (0.0 if self._pred[n] else 1.0) for n in order}
        for n in order:
            for s in self._succ[n]:
                flow[s] += flow[n] * self.edge_mean_gain(n, s)
        return flow

    def total_gain_into(self, name: str) -> float:
        """Expected items reaching ``name`` per source input (``G_i``)."""
        if name not in self._specs:
            raise SpecError(f"unknown node {name!r}")
        return self.total_gains()[name]

    def source_sink_paths(self) -> list[tuple[str, ...]]:
        """All simple source->sink paths, deterministically ordered.

        Each path carries one per-sink deadline constraint
        ``sum_{i in path} b_i x_i <= D``.  Raises :class:`SpecError` past
        ``_MAX_PATHS`` paths — a DAG that path-dense needs a coarser
        constraint formulation, not silent truncation.
        """
        src = self.single_source()
        pos = {n: i for i, n in enumerate(self.topological_order())}
        # Depth-first over successors: in a DAG every path is simple, and
        # every maximal path from the source ends at a sink.
        paths: list[tuple[str, ...]] = []
        stack: list[tuple[str, ...]] = [(src,)]
        while stack:
            path = stack.pop()
            succs = self._succ[path[-1]]
            if not succs:
                paths.append(path)
                if len(paths) > _MAX_PATHS:
                    raise SpecError(
                        f"dataflow graph has more than {_MAX_PATHS} "
                        "source->sink paths; per-path deadline constraints "
                        "do not scale to this topology"
                    )
            stack.extend(path + (s,) for s in succs)
        paths.sort(key=lambda p: tuple(pos[n] for n in p))
        return paths

    def describe(self) -> str:
        """Human-readable multi-line summary (Table 1 style, DAG columns)."""
        from repro.utils.tables import render_table

        gains = self.total_gains()
        order = self.topological_order()
        rows = [
            (
                i,
                n,
                self.spec(n).service_time,
                "|".join(self.successors(n)) or "-",
                float(gains[n]),
            )
            for i, n in enumerate(order)
        ]
        return render_table(
            ["node", "name", "t_i", "succs", "G_i"],
            rows,
            title=(
                f"dataflow graph (N={self.n_nodes}, E={self.n_edges}, "
                f"v={self.vector_width})"
            ),
        )

    # -- chain certification -------------------------------------------------

    def is_chain(self) -> bool:
        """True iff the graph is a single linear pipeline.

        Acyclic with no branching and one source, the graph is one path.
        """
        degrees_ok = all(
            len(self._pred[n]) <= 1 and len(self._succ[n]) <= 1
            for n in self._specs
        )
        return (
            degrees_ok
            and len(self.sources()) == 1
            and len(self.sinks()) == 1
        )

    def as_chain(self) -> PipelineSpec:
        """Convert to a :class:`PipelineSpec`; raises if not a chain.

        Edge gains fold back onto their source nodes (the chain
        convention); an inherited edge gain leaves the node spec
        untouched, so ``from_pipeline(p).as_chain()`` round-trips to an
        equal pipeline.
        """
        if not self.is_chain():
            branching = sorted(
                n
                for n in self._specs
                if len(self._pred[n]) > 1 or len(self._succ[n]) > 1
            )
            detail = (
                f"nodes {branching} branch or merge"
                if branching
                else f"sources={sorted(self.sources())}, "
                f"sinks={sorted(self.sinks())}"
            )
            raise SpecError(
                f"graph is not a linear chain ({detail}); use the DAG "
                "optimizer (repro.core.dag) for branching topologies — "
                "as_chain()/the paper's chain optimizations apply only to "
                "linear pipelines"
            )
        order: list[str] = []
        (current,) = self.sources()
        while True:
            order.append(current)
            succs = list(self._succ[current])
            if not succs:
                break
            current = succs[0]
        nodes = []
        for a, b in zip(order, order[1:]):
            spec = self.spec(a)
            if not self.edge_gain_is_inherited(a, b):
                spec = dataclasses.replace(spec, gain=self.edge_gain(a, b))
            nodes.append(spec)
        nodes.append(self.spec(order[-1]))
        return PipelineSpec(tuple(nodes), self.vector_width)

    @staticmethod
    def from_pipeline(spec: PipelineSpec) -> "DataflowGraph":
        """Embed a linear pipeline as a graph."""
        g = DataflowGraph(spec.vector_width)
        for node in spec.nodes:
            g.add_node(node)
        for a, b in zip(spec.nodes, spec.nodes[1:]):
            g.add_edge(a.name, b.name)
        return g
