"""Irregular streaming dataflow application model (MERCATOR-like).

This package models the paper's application abstraction (Section 2.1):
a pipeline of nodes connected by queues, where each node consumes a SIMD
vector of up to ``v`` items per firing and emits a random, data-dependent
number of outputs per input, described by a *gain distribution*.

Key pieces:

- :mod:`~repro.dataflow.gains` — gain distributions (Bernoulli, censored
  Poisson, deterministic, empirical, mixture).
- :class:`~repro.dataflow.spec.NodeSpec` / :class:`~repro.dataflow.spec.PipelineSpec`
  — immutable specifications with the paper's derived quantities
  (total gains ``G_i``, per-item vector cost).
- :class:`~repro.dataflow.queues.ItemQueue` — FIFO of in-flight items that
  tracks origin timestamps and high-water marks.
- :class:`~repro.dataflow.graph.DataflowGraph` — general DAG topology
  support (the paper's pipelines are linear chains; the optimizers require
  linearity and :meth:`DataflowGraph.as_chain` checks it).
"""

from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
    EmpiricalGain,
    GainDistribution,
    MixtureGain,
    gain_from_mean,
)
from repro.dataflow.queues import ItemQueue
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.dataflow.graph import DataflowGraph

__all__ = [
    "GainDistribution",
    "BernoulliGain",
    "CensoredPoissonGain",
    "DeterministicGain",
    "EmpiricalGain",
    "MixtureGain",
    "gain_from_mean",
    "ItemQueue",
    "NodeSpec",
    "PipelineSpec",
    "DataflowGraph",
]
