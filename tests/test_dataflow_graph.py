"""Tests for the general dataflow graph."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import DataflowGraph
from repro.dataflow.gains import BernoulliGain, DeterministicGain
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SpecError


def _node(name, t=1.0, g=1.0):
    gain = DeterministicGain(1) if g == 1.0 else BernoulliGain(g)
    return NodeSpec(name, t, gain)


class TestConstruction:
    def test_add_nodes_and_edges(self):
        g = DataflowGraph(8)
        g.add_node(_node("a"))
        g.add_node(_node("b"))
        g.add_edge("a", "b")
        assert g.n_nodes == 2 and g.n_edges == 1

    def test_duplicate_node_rejected(self):
        g = DataflowGraph(8)
        g.add_node(_node("a"))
        with pytest.raises(SpecError, match="duplicate"):
            g.add_node(_node("a"))

    def test_unknown_edge_endpoint_rejected(self):
        g = DataflowGraph(8)
        g.add_node(_node("a"))
        with pytest.raises(SpecError, match="unknown"):
            g.add_edge("a", "zzz")

    def test_self_loop_rejected(self):
        g = DataflowGraph(8)
        g.add_node(_node("a"))
        with pytest.raises(SpecError, match="self-loop"):
            g.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = DataflowGraph(8)
        for n in "abc":
            g.add_node(_node(n))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        with pytest.raises(SpecError, match="cycle"):
            g.add_edge("c", "a")
        assert g.n_edges == 2  # offending edge rolled back


class TestQueries:
    def _diamond(self):
        g = DataflowGraph(8)
        for n, gain in [("s", 1.0), ("l", 0.5), ("r", 0.5), ("t", 1.0)]:
            g.add_node(_node(n, g=gain))
        g.add_edge("s", "l")
        g.add_edge("s", "r")
        g.add_edge("l", "t")
        g.add_edge("r", "t")
        return g

    def test_sources_and_sinks(self):
        g = self._diamond()
        assert g.sources() == ["s"]
        assert g.sinks() == ["t"]

    def test_topological_order_valid(self):
        g = self._diamond()
        order = g.topological_order()
        assert order.index("s") == 0
        assert order.index("t") == 3

    def test_total_gain_sums_paths(self):
        g = self._diamond()
        # Two paths s->l->t and s->r->t, each with gain 1 * 0.5.
        assert g.total_gain_into("t") == pytest.approx(1.0)
        assert g.total_gain_into("l") == pytest.approx(1.0)

    def test_total_gain_chain_matches_pipeline(self, blast):
        g = DataflowGraph.from_pipeline(blast)
        for i, node in enumerate(blast.nodes):
            assert g.total_gain_into(node.name) == pytest.approx(
                float(blast.total_gains[i]), rel=1e-9
            )


class TestChainCertification:
    def test_diamond_is_not_chain(self):
        g = TestQueries()._diamond()
        assert not g.is_chain()
        with pytest.raises(SpecError, match="linear chain"):
            g.as_chain()

    def test_round_trip_pipeline(self, blast):
        g = DataflowGraph.from_pipeline(blast)
        assert g.is_chain()
        back = g.as_chain()
        assert isinstance(back, PipelineSpec)
        assert [n.name for n in back.nodes] == [n.name for n in blast.nodes]
        assert back.vector_width == blast.vector_width

    def test_single_node_is_chain(self):
        g = DataflowGraph(4)
        g.add_node(_node("only"))
        assert g.is_chain()
        assert g.as_chain().n_nodes == 1

    def test_disconnected_is_not_chain(self):
        g = DataflowGraph(4)
        g.add_node(_node("a"))
        g.add_node(_node("b"))
        assert not g.is_chain()

    def test_empty_is_not_chain(self):
        assert not DataflowGraph(4).is_chain()


def _weighted_diamond():
    """Diamond with *heterogeneous* explicit edge gains.

    s --0.6--> l --0.5--> t
    s --0.25-> r --2.0--> t       (r's own node gain is 0.5, ignored on
                                   the explicit s->r and r->t edges)
    """
    g = DataflowGraph(8)
    for n, gain in [("s", 1.0), ("l", 0.5), ("r", 0.5), ("t", 1.0)]:
        g.add_node(_node(n, g=gain))
    g.add_edge("s", "l", BernoulliGain(0.6))
    g.add_edge("s", "r", BernoulliGain(0.25))
    g.add_edge("l", "t")  # inherited: l's node gain 0.5
    g.add_edge("r", "t", DeterministicGain(2))
    return g


class TestEdgeGains:
    def test_inherited_edge_gain_is_source_node_gain(self):
        g = _weighted_diamond()
        assert g.edge_gain_is_inherited("l", "t")
        assert g.edge_gain("l", "t") is g.spec("l").gain
        assert g.edge_mean_gain("l", "t") == pytest.approx(0.5)

    def test_explicit_edge_gain_overrides_node_gain(self):
        g = _weighted_diamond()
        assert not g.edge_gain_is_inherited("s", "l")
        assert g.edge_mean_gain("s", "l") == pytest.approx(0.6)
        assert g.edge_mean_gain("r", "t") == pytest.approx(2.0)

    def test_duplicate_edge_rejected(self):
        g = _weighted_diamond()
        with pytest.raises(SpecError, match="duplicate edge"):
            g.add_edge("s", "l")

    def test_unknown_edge_queried(self):
        g = _weighted_diamond()
        with pytest.raises(SpecError, match="no edge"):
            g.edge_gain("t", "s")

    def test_diamond_total_gains_use_edge_gains(self):
        """Regression (fan-in semantics): G_i must sum *edge*-gain path
        products, not broadcast the source node's own gain.  With
        heterogeneous edge gains the two are observably different:
        using node gains would give G_t = 1.0*0.5 + 1.0*0.5 = 1.0."""
        g = _weighted_diamond()
        gains = g.total_gains()
        assert gains["s"] == pytest.approx(1.0)
        assert gains["l"] == pytest.approx(0.6)
        assert gains["r"] == pytest.approx(0.25)
        # G_t = 0.6 * 0.5  +  0.25 * 2.0 = 0.3 + 0.5
        assert gains["t"] == pytest.approx(0.8)
        assert g.total_gain_into("t") == pytest.approx(0.8)

    def test_total_gain_unknown_node(self):
        g = _weighted_diamond()
        with pytest.raises(SpecError, match="unknown node"):
            g.total_gain_into("zzz")


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(SpecError, match="empty.*add_node"):
            DataflowGraph(8).validate()

    def test_multiple_sources_rejected_with_names(self):
        g = DataflowGraph(8)
        for n in ("a", "b", "t"):
            g.add_node(_node(n))
        g.add_edge("a", "t")
        g.add_edge("b", "t")
        with pytest.raises(SpecError, match=r"2 sources \['a', 'b'\]"):
            g.validate()

    def test_disconnected_graph_rejected(self):
        """A disconnected DAG always presents >= 2 entry points (every
        weak component has a source), so validate() rejects it with the
        multi-source message naming each stray entry node."""
        g = DataflowGraph(8)
        for n in ("a", "b", "x", "y"):
            g.add_node(_node(n))
        g.add_edge("a", "b")
        g.add_edge("x", "y")
        with pytest.raises(SpecError, match=r"\['a', 'x'\].*exactly one"):
            g.validate()

    def test_isolated_node_rejected(self):
        g = DataflowGraph(8)
        for n in ("a", "b"):
            g.add_node(_node(n))
        g.add_edge("a", "b")
        g.add_node(_node("stray"))
        with pytest.raises(SpecError, match="'stray'"):
            g.validate()

    def test_validate_returns_self_and_single_source(self):
        g = _weighted_diamond()
        assert g.validate() is g
        assert g.single_source() == "s"

    def test_as_chain_refusal_names_branching_nodes(self):
        g = _weighted_diamond()
        with pytest.raises(SpecError, match=r"\['s', 't'\] branch or merge"):
            g.as_chain()
        with pytest.raises(SpecError, match="repro.core.dag"):
            g.as_chain()

    def test_cycle_rejected_with_actionable_message(self):
        g = DataflowGraph(8)
        for n in "abc":
            g.add_node(_node(n))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        with pytest.raises(SpecError, match="'c'->'a' would create a cycle"):
            g.add_edge("c", "a")


class TestPaths:
    def test_diamond_paths_deterministic(self):
        g = _weighted_diamond()
        assert g.source_sink_paths() == [
            ("s", "l", "t"),
            ("s", "r", "t"),
        ]

    def test_chain_single_path(self, blast):
        g = DataflowGraph.from_pipeline(blast)
        (path,) = g.source_sink_paths()
        assert path == tuple(n.name for n in blast.nodes)

    def test_single_node_path(self):
        g = DataflowGraph(4)
        g.add_node(_node("only"))
        assert g.source_sink_paths() == [("only",)]

    def test_describe_mentions_gains(self):
        text = _weighted_diamond().describe()
        assert "G_i" in text and "dataflow graph" in text


# -- property: random construction programs vs brute-force oracles ----------

_NAMES = ["a", "b", "c", "B", "a1", "d"]  # mixed case: plain str ordering

_node_op = st.tuples(st.just("node"), st.sampled_from(_NAMES))
_edge_op = st.tuples(
    st.just("edge"),
    st.sampled_from(_NAMES),
    st.sampled_from(_NAMES),
    st.booleans(),
)
# Mostly nodes first and edges after, so edge calls meet a populated
# graph; a mixed tail covers every interleaving.
_programs = st.builds(
    lambda *parts: [op for part in parts for op in part],
    st.lists(_node_op, min_size=1, max_size=8),
    st.lists(_edge_op, min_size=2, max_size=20),
    st.lists(st.one_of(_node_op, _edge_op), max_size=8),
)


def _state(g):
    return (
        g.n_nodes,
        g.n_edges,
        g.topological_order(),
        g.edges(),
        [g.edge_gain_is_inherited(a, b) for a, b in g.edges()],
    )


def _reaches(edges, start, goal):
    seen, todo = {start}, [start]
    while todo:
        n = todo.pop()
        if n == goal:
            return True
        for a, b in edges:
            if a == n and b not in seen:
                seen.add(b)
                todo.append(b)
    return False


def _smallest_topological_order(nodes, edges):
    valid = [
        p
        for p in itertools.permutations(nodes)
        if all(p.index(a) < p.index(b) for a, b in edges)
    ]
    return list(min(valid))


def _all_paths(nodes, edges, src, sinks):
    """Every node sequence from ``src`` to a sink along edges (brute force)."""
    found = []
    for r in range(1, len(nodes) + 1):
        for seq in itertools.permutations(nodes, r):
            if (
                seq[0] == src
                and seq[-1] in sinks
                and all((a, b) in edges for a, b in zip(seq, seq[1:]))
            ):
                found.append(seq)
    return found


def _weakly_connected(nodes, edges):
    undirected = set(edges) | {(b, a) for a, b in edges}
    return all(_reaches(undirected, nodes[0], n) for n in nodes)


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_construction_programs_match_brute_force(program):
    g = DataflowGraph(4)
    nodes: list[str] = []
    edges: dict[tuple[str, str], bool] = {}  # edge -> explicit gain
    for op in program:
        before = _state(g)
        if op[0] == "node":
            name = op[1]
            if name in nodes:
                with pytest.raises(SpecError, match="duplicate node"):
                    g.add_node(_node(name))
            else:
                g.add_node(_node(name, g=0.5))
                nodes.append(name)
                continue
        else:
            _, src, dst, explicit = op
            gain = DeterministicGain(2) if explicit else None
            if src not in nodes or dst not in nodes:
                expected = "unknown node"
            elif src == dst:
                expected = "self-loop"
            elif (src, dst) in edges:
                expected = "duplicate edge"
            elif _reaches(edges, dst, src):
                expected = "would create a cycle"
            else:
                g.add_edge(src, dst, gain)
                edges[(src, dst)] = explicit
                continue
            with pytest.raises(SpecError, match=expected):
                g.add_edge(src, dst, gain)
        assert _state(g) == before  # a rejected call changes nothing

    assert g.n_nodes == len(nodes) and g.n_edges == len(edges)
    order = _smallest_topological_order(nodes, edges)
    assert g.topological_order() == order
    pos = {n: i for i, n in enumerate(order)}
    sources = [n for n in nodes if not any(b == n for _, b in edges)]
    sinks = [n for n in nodes if not any(a == n for a, _ in edges)]
    assert g.sources() == sources
    assert g.sinks() == sinks
    assert g.edges() == sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))
    for n in nodes:
        assert g.predecessors(n) == sorted(
            (a for a, b in edges if b == n), key=pos.__getitem__
        )
        assert g.successors(n) == sorted(
            (b for a, b in edges if a == n), key=pos.__getitem__
        )
    for (a, b), explicit in edges.items():
        assert g.edge_gain_is_inherited(a, b) is not explicit

    if not nodes:
        with pytest.raises(SpecError, match="empty"):
            g.validate()
    elif len(sources) != 1:
        with pytest.raises(SpecError, match=f"{len(sources)} sources"):
            g.validate()
    else:
        assert _weakly_connected(nodes, edges)
        assert g.validate() is g
        paths = _all_paths(nodes, edges, sources[0], sinks)
        assert g.source_sink_paths() == sorted(
            paths, key=lambda p: tuple(pos[n] for n in p)
        )

    degrees_ok = all(
        sum(b == n for _, b in edges) <= 1 and sum(a == n for a, _ in edges) <= 1
        for n in nodes
    )
    chain = bool(nodes) and (
        len(nodes) == 1
        or (
            degrees_ok
            and len(sources) == 1
            and len(sinks) == 1
            and _weakly_connected(nodes, edges)
        )
    )
    assert g.is_chain() is chain
    if chain:
        assert [n.name for n in g.as_chain().nodes] == order
