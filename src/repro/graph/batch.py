"""Batching of sampled subgraphs into disjoint unions.

CircuitGPS trains on mini-batches of enclosing subgraphs.  A batch is a single
big graph whose connected components are the individual subgraphs; the
``batch`` vector assigns each node to its subgraph so pooling, attention and
DSPD anchors stay per-sample.

AMS netlists repeat cells, so many subgraphs of a batch are identical in
every input the GPS trunk reads.  :meth:`SubgraphBatch.distinct` finds them
once per batch, so the trunk can run on one representative each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..utils.rng import get_rng
from ..nn.dtypes import FLOAT64
from .sampling import Subgraph

__all__ = ["SubgraphBatch", "DistinctSubgraphs", "collate", "batch_iterator"]


@dataclass
class SubgraphBatch:
    """A disjoint union of subgraphs ready to be consumed by a model.

    Two layouts derived from the arrays are computed on first use and cached
    on the batch, so every model and layer that reads one batch shares them:
    :meth:`segments` (the segment layout of ``batch``) and :meth:`distinct`
    (one representative per distinct trunk input).  Both caches are dropped
    when the batch is pickled.
    """

    node_types: np.ndarray        # (N,)
    edge_index: np.ndarray        # (2, E) with batch-wide node indices
    edge_types: np.ndarray        # (E,)
    batch: np.ndarray             # (N,) graph id per node
    anchors: np.ndarray           # (B, 2) batch-wide indices of each graph's anchors
    pe: np.ndarray                # (N, pe_dim) positional encodings (possibly 0-dim)
    node_stats: np.ndarray        # (N, d_C) circuit statistics X_C
    labels: np.ndarray            # (B,) link-existence labels
    targets: np.ndarray           # (B,) regression targets
    link_types: np.ndarray        # (B,)

    @property
    def num_graphs(self) -> int:
        """Number of subgraphs collated into this batch."""
        return int(self.labels.shape[0])

    def segments(self):
        """Segment layout of the ``batch`` vector, computed once and cached.

        Returns the :class:`~repro.nn.functional.SegmentInfo` consumed by the
        segment-ops engine (attention masking, padded batching, pooling); the
        model core calls this instead of re-deriving the layout per layer.
        """
        seg = self.__dict__.get("_segments_cache")
        if seg is None:
            from ..nn.functional import segment_info

            seg = segment_info(self.batch)
            self.__dict__["_segments_cache"] = seg
        return seg

    def distinct(self) -> "DistinctSubgraphs":
        """The batch's distinct trunk inputs, computed once and cached.

        Two subgraphs are the same when every input the GPS trunk reads is
        byte-equal: node types, local edge index, edge types, local anchors
        and PE rows.  The comparison key is those bytes themselves, so it
        holds for every PE kind (including ``stats`` and plugin encodings)
        without any encoding declaring its inputs.  All subgraphs of one
        batch share each array's dtype and PE width, so equal bytes mean
        equal inputs.
        """
        found = self.__dict__.get("_distinct_cache")
        if found is None:
            found = _distinct_subgraphs(self)
            self.__dict__["_distinct_cache"] = found
        return found

    def __getstate__(self) -> dict:
        """Drop the derived layout caches when pickling (worker transfers)."""
        state = dict(self.__dict__)
        state.pop("_segments_cache", None)
        state.pop("_distinct_cache", None)
        return state

    @property
    def num_nodes(self) -> int:
        """Total node count across the batch."""
        return int(self.node_types.shape[0])

    @property
    def num_edges(self) -> int:
        """Total edge count across the batch."""
        return int(self.edge_index.shape[1])

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.batch.shape[0] != self.num_nodes:
            raise ValueError("batch vector length mismatch")
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise ValueError("edge_index exceeds number of nodes")
        if self.anchors.shape != (self.num_graphs, 2):
            raise ValueError("anchors must have shape (num_graphs, 2)")
        if self.edge_index.size:
            same = self.batch[self.edge_index[0]] == self.batch[self.edge_index[1]]
            if not bool(np.all(same)):
                raise ValueError("edges must not cross subgraph boundaries")


@dataclass(frozen=True)
class DistinctSubgraphs:
    """One representative per distinct subgraph of a batch.

    ``count`` of the batch's subgraphs are distinct.  When some repeat,
    ``batch`` collates the first occurrence of each distinct subgraph in
    batch order, and ``node_index`` maps every node row of the full batch to
    the matching row of ``batch``.  When every subgraph is distinct, both
    are ``None``.
    """

    count: int
    batch: SubgraphBatch | None = None
    node_index: np.ndarray | None = None


def _distinct_subgraphs(batch: SubgraphBatch) -> DistinctSubgraphs:
    """Group a batch's subgraphs by the bytes of their trunk inputs."""
    seg = batch.segments()
    graph_of = seg.index
    slots = seg.slots
    # Node rows and edges grouped by subgraph (identity orders for a
    # collated batch), with subgraph-local node indices.
    node_order = np.argsort(graph_of, kind="stable")
    node_bounds = np.concatenate([[0], np.cumsum(seg.counts)])
    node_types = batch.node_types[node_order]
    pe = np.ascontiguousarray(batch.pe[node_order])
    edge_graph = graph_of[batch.edge_index[0]]
    edge_order = np.argsort(edge_graph, kind="stable")
    edge_bounds = np.concatenate(
        [[0], np.cumsum(np.bincount(edge_graph, minlength=seg.num_segments))])
    local_edges = np.ascontiguousarray(slots[batch.edge_index[:, edge_order]].T)
    edge_types = batch.edge_types[edge_order]
    local_anchors = slots[batch.anchors]

    first: dict[tuple, int] = {}
    reps: list[int] = []
    inverse = np.empty(seg.num_segments, dtype=np.int64)
    for graph in range(seg.num_segments):
        n0, n1 = node_bounds[graph], node_bounds[graph + 1]
        e0, e1 = edge_bounds[graph], edge_bounds[graph + 1]
        key = (node_types[n0:n1].tobytes(), local_edges[e0:e1].tobytes(),
               edge_types[e0:e1].tobytes(), local_anchors[graph].tobytes(),
               pe[n0:n1].tobytes())
        index = first.get(key)
        if index is None:
            index = first[key] = len(reps)
            reps.append(graph)
        inverse[graph] = index
    if len(reps) == seg.num_segments:
        return DistinctSubgraphs(len(reps))

    is_rep = np.zeros(seg.num_segments, dtype=bool)
    is_rep[reps] = True
    rep_nodes = node_order[is_rep[graph_of[node_order]]]
    row_of = np.full(batch.num_nodes, -1, dtype=np.int64)
    row_of[rep_nodes] = np.arange(rep_nodes.shape[0])
    rep_offsets = np.concatenate([[0], np.cumsum(seg.counts[reps])[:-1]])
    rep_edges = is_rep[edge_graph]
    representatives = SubgraphBatch(
        node_types=batch.node_types[rep_nodes],
        edge_index=row_of[batch.edge_index[:, rep_edges]],
        edge_types=batch.edge_types[rep_edges],
        batch=inverse[graph_of[rep_nodes]],
        anchors=row_of[batch.anchors[reps]],
        pe=batch.pe[rep_nodes],
        node_stats=batch.node_stats[rep_nodes],
        labels=batch.labels[reps],
        targets=batch.targets[reps],
        link_types=batch.link_types[reps],
    )
    return DistinctSubgraphs(len(reps), representatives,
                             rep_offsets[inverse[graph_of]] + slots)


def collate(subgraphs: Sequence[Subgraph], stats_dim: int | None = None) -> SubgraphBatch:
    """Concatenate subgraphs into one :class:`SubgraphBatch`."""
    if not subgraphs:
        raise ValueError("cannot collate an empty list of subgraphs")
    pe_dims = {0 if s.pe is None else s.pe.shape[1] for s in subgraphs}
    if len(pe_dims) != 1:
        raise ValueError(f"inconsistent PE dimensions in batch: {sorted(pe_dims)}")
    pe_dim = pe_dims.pop()
    if stats_dim is None:
        stats_dim = 0
        for subgraph in subgraphs:
            if subgraph.node_stats is not None:
                stats_dim = subgraph.node_stats.shape[1]
                break

    node_types, edge_index, edge_types, batch_vec = [], [], [], []
    pe_rows, stats_rows, anchors = [], [], []
    labels, targets, link_types = [], [], []
    offset = 0
    for graph_id, subgraph in enumerate(subgraphs):
        n = subgraph.num_nodes
        node_types.append(subgraph.node_types)
        edge_index.append(subgraph.edge_index + offset)
        edge_types.append(subgraph.edge_types)
        batch_vec.append(np.full(n, graph_id, dtype=np.int64))
        pe_rows.append(subgraph.pe if subgraph.pe is not None else np.zeros((n, pe_dim)))
        if subgraph.node_stats is not None:
            stats_rows.append(subgraph.node_stats)
        else:
            stats_rows.append(np.zeros((n, stats_dim)))
        anchors.append([subgraph.anchors[0] + offset, subgraph.anchors[1] + offset])
        labels.append(subgraph.label)
        targets.append(subgraph.target)
        link_types.append(subgraph.link_type)
        offset += n

    return SubgraphBatch(
        node_types=np.concatenate(node_types),
        edge_index=np.concatenate(edge_index, axis=1) if edge_index else np.zeros((2, 0), dtype=np.int64),
        edge_types=np.concatenate(edge_types),
        batch=np.concatenate(batch_vec),
        anchors=np.array(anchors, dtype=np.int64),
        pe=np.concatenate(pe_rows, axis=0),
        node_stats=np.concatenate(stats_rows, axis=0),
        labels=np.array(labels, dtype=FLOAT64),
        targets=np.array(targets, dtype=FLOAT64),
        link_types=np.array(link_types, dtype=np.int64),
    )


def batch_iterator(subgraphs: Sequence[Subgraph], batch_size: int, shuffle: bool = True,
                   rng=None, drop_last: bool = False) -> Iterator[SubgraphBatch]:
    """Yield :class:`SubgraphBatch` objects of ``batch_size`` subgraphs."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = get_rng(rng)
    order = np.arange(len(subgraphs))
    if shuffle:
        order = rng.permutation(order)
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        if drop_last and len(chunk) < batch_size:
            break
        yield collate([subgraphs[i] for i in chunk])
