"""The CircuitGPS model: encoders + GPS trunk + task-specific heads (Fig. 2).

The model consumes :class:`~repro.graph.batch.SubgraphBatch` objects and can
run three tasks on the same trunk:

* ``"link"``            — link-existence logit per subgraph (pre-training),
* ``"edge_regression"`` — coupling-capacitance prediction per subgraph,
* ``"node_regression"`` — ground-capacitance prediction per subgraph (single
  anchor).

The trunk input is ``X0 = PE-encoding ⊕ Embed(node type)`` (Eq. 1); edge
features come from an edge-type embedding.  Circuit statistics ``X_C`` reach
only the regression heads (Observation 1).
"""

from __future__ import annotations

import numpy as np

from ..api.registries import BACKBONES
from ..graph.batch import SubgraphBatch
from ..graph.encodings import pe_dim
from ..nn import Embedding, Linear, Module, ModuleList, Tensor, concat
from ..utils.rng import get_rng
from .gps_layer import GPSLayer
from .heads import LinkPredictionHead, RegressionHead

__all__ = ["CircuitGPS", "TASKS"]

TASKS = ("link", "edge_regression", "node_regression")

NUM_NODE_TYPES = 3
NUM_EDGE_TYPES = 5  # 2 structural + 3 link types (target edges injected into subgraphs)


def _directed(edge_index: np.ndarray, edge_types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate undirected edges in both directions for message passing."""
    if edge_index.size == 0:
        return edge_index, edge_types
    both = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    types = np.concatenate([edge_types, edge_types])
    return both, types


@BACKBONES.register("circuitgps")
class CircuitGPS(Module):
    """Hybrid graph-Transformer model for parasitic prediction on AMS circuits.

    The default backbone of the reproduction, registered as ``"circuitgps"``
    in :data:`repro.api.BACKBONES`; ``attention`` may name any kernel in
    :data:`repro.api.ATTENTION`.
    """

    #: Trunk-output cache read by eval-mode :meth:`encode`: any object with
    #: ``get(key)`` and ``put(key, rows)``, keyed by
    #: :class:`~repro.graph.batch.DistinctSubgraphs` digests.  Only a model
    #: whose parameters never change again may hold one.
    trunk_cache = None

    def __init__(self, dim: int = 64, num_layers: int = 3, pe_kind: str = "dspd",
                 pe_hidden: int = 8, mpnn: str = "gatedgcn", attention: str = "transformer",
                 num_heads: int = 4, dropout: float = 0.1, stats_dim: int = 13, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.dim = int(dim)
        self.num_heads = int(num_heads)
        self.dropout_rate = float(dropout)
        self.pe_kind = pe_kind.lower()
        self.pe_input_dim = pe_dim(self.pe_kind, stats_dim=stats_dim)
        self.pe_hidden = int(pe_hidden) if self.pe_input_dim > 0 else 0
        self.stats_dim = int(stats_dim)
        self.mpnn_type = mpnn
        self.attention_type = attention

        node_embed_dim = self.dim - self.pe_hidden
        if node_embed_dim <= 0:
            raise ValueError("dim must be larger than pe_hidden")
        self.node_encoder = Embedding(NUM_NODE_TYPES, node_embed_dim, rng=rng)
        self.edge_encoder = Embedding(NUM_EDGE_TYPES, self.dim, rng=rng)
        self.pe_encoder = (
            Linear(self.pe_input_dim, self.pe_hidden, rng=rng) if self.pe_hidden > 0 else None
        )

        self.layers = ModuleList([
            GPSLayer(self.dim, mpnn=mpnn, attention=attention, num_heads=num_heads,
                     dropout=dropout, rng=rng)
            for _ in range(num_layers)
        ])

        self.link_head = LinkPredictionHead(self.dim, dropout=dropout, rng=rng)
        self.edge_head = RegressionHead(self.dim, stats_dim=stats_dim, dropout=dropout, rng=rng)
        self.node_head = RegressionHead(self.dim, stats_dim=stats_dim, dropout=dropout, rng=rng)

    # ------------------------------------------------------------------ #
    # Trunk
    # ------------------------------------------------------------------ #
    def encode(self, batch: SubgraphBatch) -> Tensor:
        """Run encoders and the GPS trunk; returns node embeddings ``X_L``.

        In eval mode the trunk runs once per distinct subgraph of the batch
        (:meth:`~repro.graph.batch.SubgraphBatch.distinct`, computed once per
        batch and shared by every model that reads it), and only for the
        subgraphs that ``trunk_cache`` does not hold; one row gather expands
        the embeddings back to every node of the batch.  The trunk is
        batch-invariant (each subgraph's attention is padded by its own size,
        :func:`repro.nn.functional.padded_length`), so a subgraph's rows are
        bit-identical whether they were computed alone, in this batch or
        read from the cache.  ``trunk_cache`` is ``None`` unless a serving
        engine attaches one to its private snapshot
        (:class:`repro.core.serve.AnnotationEngine`); a model without one
        misses every lookup.  In train mode BatchNorm statistics and dropout
        couple the rows, so the whole batch runs through the trunk.
        """
        if self.training:
            return self._trunk(batch)
        distinct = batch.distinct()
        representatives, cache = distinct.batch, self.trunk_cache
        found = [None if cache is None else cache.get(key) for key in distinct.keys]
        missing = [group for group, rows in enumerate(found) if rows is None]
        hits = [group for group, rows in enumerate(found) if rows is not None]
        sizes = np.diff(representatives.node_offsets)
        parts = []
        if missing or not hits:  # an empty batch runs the (empty) trunk too
            fresh = self._trunk(representatives.select(missing))
            if cache is not None:
                counts = sizes[missing].tolist()
                for group, stop, count in zip(missing, np.cumsum(counts).tolist(), counts):
                    rows = fresh.data[stop - count:stop].copy()
                    rows.setflags(write=False)
                    cache.put(distinct.keys[group], rows)
            if not hits and representatives is batch:
                return fresh  # every subgraph distinct and computed, in order
            parts.append(fresh)
        if hits:
            parts.append(Tensor(np.concatenate([found[group] for group in hits])))
        # First row of each distinct subgraph in the stacked parts.
        order = np.asarray(missing + hits, dtype=np.int64)
        start = np.empty_like(order)
        start[order] = np.cumsum(sizes[order]) - sizes[order]
        stacked = parts[0] if len(parts) == 1 else concat(parts, axis=0)
        return stacked.gather_rows(start[distinct.inverse[batch.batch]]
                                   + batch.segments().slots)

    def _trunk(self, batch: SubgraphBatch) -> Tensor:
        """Encoders and GPS layers over every node row of ``batch``."""
        node_embedding = self.node_encoder(batch.node_types)
        if self.pe_encoder is not None:
            if batch.pe.shape[1] != self.pe_input_dim:
                raise ValueError(
                    f"batch PE dim {batch.pe.shape[1]} does not match model PE kind "
                    f"{self.pe_kind!r} (expected {self.pe_input_dim})"
                )
            pe_embedding = self.pe_encoder(Tensor(batch.pe))
            x = concat([pe_embedding, node_embedding], axis=1)
        else:
            x = node_embedding

        edge_index, edge_types = _directed(batch.edge_index, batch.edge_types)
        edge_attr = self.edge_encoder(edge_types) if edge_types.size else Tensor(
            np.zeros((0, self.dim))
        )
        # One segment-layout computation shared by every attention layer.
        seg = batch.segments()
        for layer in self.layers:
            x, edge_attr = layer(x, edge_attr, edge_index, seg)
        return x

    # ------------------------------------------------------------------ #
    # Task heads
    # ------------------------------------------------------------------ #
    def forward(self, batch: SubgraphBatch, task: str = "link") -> Tensor:
        """Per-subgraph predictions for the requested task.

        Returns logits for ``"link"`` and raw (normalised-capacitance)
        predictions for the regression tasks.
        """
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {task!r}")
        embeddings = self.encode(batch)
        seg = batch.segments()
        if task == "link":
            return self.link_head(embeddings, seg, batch.anchors)
        head = self.edge_head if task == "edge_regression" else self.node_head
        return head(embeddings, batch.node_stats, batch.node_types, seg, batch.anchors)

    # ------------------------------------------------------------------ #
    # Fine-tuning helpers
    # ------------------------------------------------------------------ #
    def backbone_modules(self) -> list[Module]:
        """Encoders and GPS layers — the part shared between tasks."""
        modules: list[Module] = [self.node_encoder, self.edge_encoder]
        if self.pe_encoder is not None:
            modules.append(self.pe_encoder)
        modules.extend(list(self.layers))
        return modules

    def freeze_backbone(self) -> None:
        """Freeze encoders and GPS layers (head-only fine-tuning, Section III-E)."""
        for module in self.backbone_modules():
            module.freeze()

    def unfreeze_backbone(self) -> None:
        for module in self.backbone_modules():
            module.unfreeze()

    def head_parameters(self, task: str = "edge_regression"):
        """Parameters of the requested task head (for head-only optimisers)."""
        if task == "link":
            return list(self.link_head.parameters())
        if task == "edge_regression":
            return list(self.edge_head.parameters())
        if task == "node_regression":
            return list(self.node_head.parameters())
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")

    def config(self) -> dict:
        """Hyper-parameters needed to rebuild the model (stored in checkpoints)."""
        return {
            "dim": self.dim,
            "num_layers": len(self.layers),
            "pe_kind": self.pe_kind,
            "pe_hidden": self.pe_hidden,
            "mpnn": self.mpnn_type,
            "attention": self.attention_type,
            "num_heads": self.num_heads,
            "dropout": self.dropout_rate,
            "stats_dim": self.stats_dim,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitGPS(dim={self.dim}, layers={len(self.layers)}, pe={self.pe_kind!r}, "
            f"mpnn={self.mpnn_type!r}, attention={self.attention_type!r}, "
            f"params={self.num_parameters()})"
        )
