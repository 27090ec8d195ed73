"""Baseline models: ParaGraph (DAC'20) and DLPL-Cap (GLSVLSI'24).

Both baselines follow their papers' key design decisions as summarised in
Section II and IV-B of the CircuitGPS paper:

* they operate on the **entire circuit graph** (no subgraph sampling),
* they take the **circuit-statistics matrix ``X_C`` as node input features**
  (no positional encodings),
* ParaGraph uses an **ensemble of three sub-models** specialised for different
  capacitance magnitudes,
* DLPL-Cap uses a **GNN router plus five expert regressors**.

For coupling (link) prediction the node embeddings of the two endpoints are
scored by an MLP, which is how the CircuitGPS authors adapted both baselines
for comparison.
"""

from __future__ import annotations

import numpy as np

from ..graph.hetero import CircuitGraph
from ..nn import MLP, BatchNorm1d, Embedding, Linear, Module, ModuleList, Tensor, concat
from ..nn import functional as F
from ..utils.rng import get_rng

__all__ = ["FullGraphEncoder", "ParaGraph", "DLPLCap"]

NUM_NODE_TYPES = 3
NUM_EDGE_TYPES = 2


class _MessagePassingLayer(Module):
    """Edge-type-aware mean-aggregation message-passing layer (GraphSAGE-style)."""

    def __init__(self, dim: int, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.msg = Linear(dim, dim, rng=rng)
        self.self_proj = Linear(dim, dim, rng=rng)
        self.agg_proj = Linear(dim, dim, rng=rng)
        self.edge_embed = Embedding(NUM_EDGE_TYPES, dim, rng=rng)
        self.bn = BatchNorm1d(dim)

    def forward(self, x: Tensor, edge_index: np.ndarray, edge_types: np.ndarray) -> Tensor:
        if edge_index.size == 0:
            return self.bn(self.self_proj(x)).relu() + x
        src, dst = edge_index[0], edge_index[1]
        messages = self.msg(x.gather_rows(src)) + self.edge_embed(edge_types)
        aggregated = F.scatter_mean(messages, dst, x.shape[0])
        out = self.bn(self.self_proj(x) + self.agg_proj(aggregated)).relu()
        return out + x


class FullGraphEncoder(Module):
    """Shared whole-graph encoder used by both baselines.

    Node input = linear projection of (normalised) ``X_C`` plus a node-type
    embedding; then ``num_layers`` of edge-type-aware message passing.
    """

    def __init__(self, dim: int = 32, num_layers: int = 3, stats_dim: int = 13, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.dim = int(dim)
        self.stats_proj = Linear(stats_dim, dim, rng=rng)
        self.type_embed = Embedding(NUM_NODE_TYPES, dim, rng=rng)
        self.layers = ModuleList([_MessagePassingLayer(dim, rng=rng) for _ in range(num_layers)])

    @staticmethod
    def graph_inputs(graph: CircuitGraph, node_stats: np.ndarray) -> dict:
        """Precompute the directed edge arrays for a circuit graph."""
        edge_index = np.concatenate([graph.edge_index, graph.edge_index[::-1]], axis=1)
        edge_types = np.concatenate([graph.edge_types, graph.edge_types])
        return {
            "node_types": graph.node_types,
            "node_stats": node_stats,
            "edge_index": edge_index,
            "edge_types": edge_types,
        }

    def forward(self, inputs: dict) -> Tensor:
        x = self.stats_proj(Tensor(inputs["node_stats"])) + self.type_embed(inputs["node_types"])
        x = x.relu()
        for layer in self.layers:
            x = layer(x, inputs["edge_index"], inputs["edge_types"])
        return x


def _pair_features(embeddings: Tensor, pairs: np.ndarray) -> Tensor:
    """Concatenate endpoint embeddings and their elementwise product."""
    a = embeddings.gather_rows(pairs[:, 0])
    b = embeddings.gather_rows(pairs[:, 1])
    return concat([a, b, a * b], axis=1)


class _WholeGraphBaseline(Module):
    """What both baselines share: the whole-graph ``encoder``, the endpoint
    ``link_scorer`` and the dispatch of a batch to the task's head."""

    def encode(self, inputs: dict) -> Tensor:
        return self.encoder(inputs)

    def link_logits(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        return self.link_scorer(_pair_features(embeddings, pairs)).reshape(pairs.shape[0])

    def forward(self, batch, task: str = "link") -> Tensor:
        """Predictions for the target pairs of a whole-design batch
        (:class:`repro.core.DesignBatch`): logits for ``"link"``, raw
        normalised capacitances for the regression tasks."""
        embeddings = self.encode(batch.inputs)
        if task == "link":
            return self.link_logits(embeddings, batch.pairs)
        if task == "edge_regression":
            return self.edge_regression(embeddings, batch.pairs)
        if task == "node_regression":
            return self.node_regression(embeddings, batch.pairs[:, 0])
        raise ValueError(f"unknown task {task!r}")


class ParaGraph(_WholeGraphBaseline):
    """ParaGraph baseline with a three-way capacitance-magnitude ensemble."""

    def __init__(self, dim: int = 32, num_layers: int = 3, stats_dim: int = 13,
                 num_magnitude_bins: int = 3, dropout: float = 0.0, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.encoder = FullGraphEncoder(dim, num_layers, stats_dim, rng=rng)
        self.link_scorer = MLP([3 * dim, dim, 1], dropout=dropout, rng=rng)
        self.magnitude_classifier = MLP([3 * dim, dim, num_magnitude_bins], dropout=dropout, rng=rng)
        self.experts = ModuleList([
            MLP([3 * dim, dim, 1], dropout=dropout, rng=rng) for _ in range(num_magnitude_bins)
        ])
        self.node_regressor = MLP([dim, dim, 1], dropout=dropout, rng=rng)
        self.num_magnitude_bins = int(num_magnitude_bins)

    def edge_regression(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        """Soft ensemble over the magnitude experts (differentiable routing)."""
        features = _pair_features(embeddings, pairs)
        weights = self.magnitude_classifier(features).softmax(axis=-1)
        outputs = concat([expert(features) for expert in self.experts], axis=1)
        return (weights * outputs).sum(axis=1)

    def node_regression(self, embeddings: Tensor, nodes: np.ndarray) -> Tensor:
        return self.node_regressor(embeddings.gather_rows(nodes)).reshape(nodes.shape[0])


class DLPLCap(_WholeGraphBaseline):
    """DLPL-Cap baseline: GNN router plus five expert regressors.

    The router classifies each target into a capacitance-magnitude class; the
    experts are class-specific regressors.  Following the original paper the
    router and experts are trained jointly; routing is soft (a mixture
    weighted by the router distribution) to keep the model differentiable.
    """

    def __init__(self, dim: int = 32, num_layers: int = 3, stats_dim: int = 13,
                 num_experts: int = 5, dropout: float = 0.0, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.encoder = FullGraphEncoder(dim, num_layers, stats_dim, rng=rng)
        self.link_scorer = MLP([3 * dim, dim, 1], dropout=dropout, rng=rng)
        self.router = MLP([3 * dim, dim, num_experts], dropout=dropout, rng=rng)
        self.experts = ModuleList([
            MLP([3 * dim, dim, 1], dropout=dropout, rng=rng) for _ in range(num_experts)
        ])
        self.node_router = MLP([dim, dim, num_experts], dropout=dropout, rng=rng)
        self.node_experts = ModuleList([
            MLP([dim, dim, 1], dropout=dropout, rng=rng) for _ in range(num_experts)
        ])
        self.num_experts = int(num_experts)

    def router_logits(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        return self.router(_pair_features(embeddings, pairs))

    def edge_regression(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        features = _pair_features(embeddings, pairs)
        weights = self.router(features).softmax(axis=-1)
        outputs = concat([expert(features) for expert in self.experts], axis=1)
        return (weights * outputs).sum(axis=1)

    def node_regression(self, embeddings: Tensor, nodes: np.ndarray) -> Tensor:
        features = embeddings.gather_rows(nodes)
        weights = self.node_router(features).softmax(axis=-1)
        outputs = concat([expert(features) for expert in self.node_experts], axis=1)
        return (weights * outputs).sum(axis=1)
