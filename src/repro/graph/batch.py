"""Subgraph blocks: one representation from the sampler to the forward.

CircuitGPS scores every link on its small-hop enclosing subgraph.  A
:class:`SubgraphBatch` (a *block*) holds many of them as one big graph whose
connected components are the individual subgraphs.  Node rows and edges are
grouped by subgraph in order (*segment order*), the ``batch`` vector assigns
each node to its subgraph, and anchors are batch-wide, so pooling, attention
and DSPD anchors stay per-sample.

The batched extractors of :mod:`repro.graph.sampling` return a block, the
positional encoding is attached to it as one ``(N, d)`` array, and the model
forwards it as is: :func:`collate` of a block is the block itself, and
joining blocks is offset arithmetic (:meth:`SubgraphBatch.select`,
:meth:`SubgraphBatch.concat`).  A :class:`Subgraph` is one segment seen on
its own (``block[i]``); the training datasets, the tests and plugin
encodings read subgraphs that way.

AMS netlists repeat cells, so many subgraphs of a batch are identical in
every input the GPS trunk reads.  :meth:`SubgraphBatch.distinct` finds them
once per batch, so the trunk can run on one representative each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..nn.dtypes import FLOAT64

__all__ = ["Subgraph", "SubgraphBatch", "DistinctSubgraphs", "collate"]


@dataclass
class Subgraph:
    """A sampled enclosing subgraph around one or two anchor nodes.

    All arrays are *local* to the subgraph; ``node_ids`` maps back to the host
    graph.  ``anchors`` holds the local indices of the target link's endpoints
    (twice the same index for node-level targets).  ``block[i]`` returns one
    whose arrays are slices of the block's (``edge_index`` excepted).
    """

    node_ids: np.ndarray | None   # (N,) global node indices
    node_types: np.ndarray        # (N,) node-type codes
    edge_index: np.ndarray        # (2, E) local undirected edges
    edge_types: np.ndarray        # (E,) edge-type codes
    anchors: tuple[int, int]      # local indices of the anchor nodes
    label: float = 0.0            # link existence (classification target)
    target: float = 0.0           # capacitance (regression target)
    link_type: int = -1
    node_stats: np.ndarray | None = None   # (N, d_C) slice of X_C
    pe: np.ndarray | None = None  # positional encoding, filled by encodings.py
    extras: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the subgraph."""
        return int(self.node_types.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of (undirected) subgraph edges."""
        return int(self.edge_index.shape[1])

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        n = self.num_nodes
        if self.edge_index.size and (self.edge_index.min() < 0 or self.edge_index.max() >= n):
            raise ValueError("subgraph edge_index out of range")
        if not (0 <= self.anchors[0] < n and 0 <= self.anchors[1] < n):
            raise ValueError("anchor index out of range")
        if self.node_stats is not None and self.node_stats.shape[0] != n:
            raise ValueError("node_stats rows do not match subgraph size")


def _offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the segment bounds of ``counts``."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` runs."""
    return np.repeat(starts - _offsets(counts)[:-1], counts) + np.arange(int(counts.sum()))


def segment_bytes(array: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """The bytes of every segment ``array[offsets[i]:offsets[i + 1]]``.

    One ``tobytes`` of the whole array, then one slice per segment.
    """
    array = np.ascontiguousarray(array)
    row = array.itemsize * int(np.prod(array.shape[1:], dtype=np.int64))
    bounds = (np.asarray(offsets, dtype=np.int64) * row).tolist()
    raw = array.tobytes()
    return [raw[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def group_keys(keys) -> tuple[np.ndarray, np.ndarray]:
    """Group equal keys: ``(inverse, first)``.

    ``inverse[i]`` numbers key ``i``'s group in first-seen order, and
    ``first[g]`` is the position where group ``g`` first occurs.
    """
    groups: dict = {}
    inverse = np.fromiter((groups.setdefault(key, len(groups)) for key in keys),
                          dtype=np.int64)
    return inverse, np.unique(inverse, return_index=True)[1]


@dataclass
class SubgraphBatch:
    """A block: a disjoint union of subgraphs in segment order.

    Node rows and edges are grouped by subgraph, subgraph ``i``'s nodes
    before subgraph ``i + 1``'s.  ``pe`` is ``None`` until an encoding is
    attached.  ``node_ids`` maps every node row to the host graph (``None``
    for synthetic batches).

    Layouts derived from the arrays are computed on first use and cached on
    the batch, so every model and layer that reads one batch shares them:
    the node and edge offsets, the subgraph-local edges and anchors,
    :meth:`segments` and :meth:`distinct`.  The caches are dropped when the
    batch is pickled.
    """

    node_types: np.ndarray        # (N,)
    edge_index: np.ndarray        # (2, E) with batch-wide node indices
    edge_types: np.ndarray        # (E,)
    batch: np.ndarray             # (N,) graph id per node
    anchors: np.ndarray           # (B, 2) batch-wide indices of each graph's anchors
    pe: np.ndarray | None         # (N, pe_dim) positional encodings (possibly 0-dim)
    node_stats: np.ndarray        # (N, d_C) circuit statistics X_C
    labels: np.ndarray            # (B,) link-existence labels
    targets: np.ndarray           # (B,) regression targets
    link_types: np.ndarray        # (B,)
    node_ids: np.ndarray | None = None  # (N,) host-graph node id per row

    def _derived(self, name: str, build):
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = build()
        return value

    @property
    def num_graphs(self) -> int:
        """Number of subgraphs collated into this batch."""
        return int(self.labels.shape[0])

    @property
    def node_offsets(self) -> np.ndarray:
        """``(B + 1,)`` bounds of each subgraph's node rows."""
        return self._derived("_node_offsets_cache", lambda: _offsets(
            np.bincount(self.batch, minlength=self.num_graphs)))

    @property
    def edge_offsets(self) -> np.ndarray:
        """``(B + 1,)`` bounds of each subgraph's edges."""
        return self._derived("_edge_offsets_cache", lambda: _offsets(
            np.bincount(self.batch[self.edge_index[0]], minlength=self.num_graphs)))

    @property
    def local_edges(self) -> np.ndarray:
        """``(E, 2)`` subgraph-local endpoints, one row per edge."""
        def build():
            edge_graph = np.repeat(np.arange(self.num_graphs), np.diff(self.edge_offsets))
            local = self.edge_index - self.node_offsets[edge_graph]
            return np.ascontiguousarray(local.T, dtype=np.int64)
        return self._derived("_local_edges_cache", build)

    @property
    def local_anchors(self) -> np.ndarray:
        """``(B, 2)`` subgraph-local anchor indices."""
        return self._derived("_local_anchors_cache", lambda: np.ascontiguousarray(
            self.anchors - self.node_offsets[:-1, None], dtype=np.int64))

    def segments(self):
        """Segment layout of the ``batch`` vector, computed once and cached.

        Returns the :class:`~repro.nn.functional.SegmentInfo` consumed by the
        segment-ops engine (attention masking, padded batching, pooling); the
        model core calls this instead of re-deriving the layout per layer.
        """
        from ..nn.functional import segment_info

        return self._derived("_segments_cache", lambda: segment_info(self.batch))

    def distinct(self) -> "DistinctSubgraphs":
        """The batch's distinct trunk inputs, computed once and cached.

        Two subgraphs are the same when every input the GPS trunk reads is
        byte-equal: node types, local edges, edge types, local anchors and
        PE rows.  The comparison key is those bytes themselves, so it holds
        for every PE kind (including ``stats`` and plugin encodings) without
        any encoding declaring its inputs.  All subgraphs of one batch share
        each array's dtype and PE width, so equal bytes mean equal inputs.
        """
        return self._derived("_distinct_cache", lambda: _distinct_subgraphs(self))

    def __getstate__(self) -> dict:
        """Drop the derived layout caches when pickling (worker transfers)."""
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}

    @property
    def num_nodes(self) -> int:
        """Total node count across the batch."""
        return int(self.node_types.shape[0])

    @property
    def num_edges(self) -> int:
        """Total edge count across the batch."""
        return int(self.edge_index.shape[1])

    # ------------------------------------------------------------------ #
    # Segments as subgraphs, and blocks of blocks
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_graphs

    def __getitem__(self, index: int) -> Subgraph:
        """Subgraph ``index`` as a :class:`Subgraph` over slices of the block."""
        index = range(self.num_graphs)[index]
        nodes = slice(*self.node_offsets[index:index + 2])
        edges = slice(*self.edge_offsets[index:index + 2])
        anchor_a, anchor_b = self.local_anchors[index].tolist()
        return Subgraph(
            node_ids=None if self.node_ids is None else self.node_ids[nodes],
            node_types=self.node_types[nodes],
            edge_index=self.edge_index[:, edges] - nodes.start,
            edge_types=self.edge_types[edges],
            anchors=(anchor_a, anchor_b),
            label=float(self.labels[index]),
            target=float(self.targets[index]),
            link_type=int(self.link_types[index]),
            node_stats=self.node_stats[nodes] if self.node_stats.shape[1] else None,
            pe=None if self.pe is None else self.pe[nodes],
        )

    def __iter__(self) -> Iterator[Subgraph]:
        return (self[index] for index in range(self.num_graphs))

    def select(self, graphs) -> "SubgraphBatch":
        """The block of subgraphs ``graphs``, in that order (offset arithmetic)."""
        graphs = np.asarray(graphs, dtype=np.int64)
        if graphs.size == self.num_graphs and np.array_equal(graphs, np.arange(graphs.size)):
            return self
        node_starts = self.node_offsets[graphs]
        node_counts = self.node_offsets[graphs + 1] - node_starts
        edge_starts = self.edge_offsets[graphs]
        edge_counts = self.edge_offsets[graphs + 1] - edge_starts
        rows = _ranges(node_starts, node_counts)
        columns = _ranges(edge_starts, edge_counts)
        shift = _offsets(node_counts)[:-1] - node_starts
        return SubgraphBatch(
            node_types=self.node_types[rows],
            edge_index=self.edge_index[:, columns] + np.repeat(shift, edge_counts),
            edge_types=self.edge_types[columns],
            batch=np.repeat(np.arange(graphs.size), node_counts),
            anchors=self.anchors[graphs] + shift[:, None],
            pe=None if self.pe is None else self.pe[rows],
            node_stats=self.node_stats[rows],
            labels=self.labels[graphs],
            targets=self.targets[graphs],
            link_types=self.link_types[graphs],
            node_ids=None if self.node_ids is None else self.node_ids[rows],
        )

    @classmethod
    def concat(cls, blocks: Sequence["SubgraphBatch"]) -> "SubgraphBatch":
        """One block of every subgraph of ``blocks``, in order."""
        if len(blocks) == 1:
            return blocks[0]
        pe_dims = {None if b.pe is None else b.pe.shape[1] for b in blocks}
        if len(pe_dims) != 1:
            raise ValueError(f"inconsistent PE dimensions in batch: {sorted(pe_dims, key=str)}")
        node_base = _offsets([b.num_nodes for b in blocks])
        graph_base = _offsets([b.num_graphs for b in blocks])

        def joined(name, shift=None, axis=0):
            return np.concatenate([getattr(b, name) + (0 if shift is None else shift[i])
                                   for i, b in enumerate(blocks)], axis=axis)

        return cls(
            node_types=joined("node_types"),
            edge_index=joined("edge_index", node_base, axis=1),
            edge_types=joined("edge_types"),
            batch=joined("batch", graph_base),
            anchors=joined("anchors", node_base),
            pe=None if None in pe_dims else joined("pe"),
            node_stats=joined("node_stats"),
            labels=joined("labels"),
            targets=joined("targets"),
            link_types=joined("link_types"),
            node_ids=(None if any(b.node_ids is None for b in blocks)
                      else joined("node_ids")),
        )

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.batch.shape[0] != self.num_nodes:
            raise ValueError("batch vector length mismatch")
        if self.batch.size and np.any(np.diff(self.batch) < 0):
            raise ValueError("node rows must be grouped by subgraph in order")
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise ValueError("edge_index exceeds number of nodes")
        if self.anchors.shape != (self.num_graphs, 2):
            raise ValueError("anchors must have shape (num_graphs, 2)")
        if self.edge_index.size:
            edge_graph = self.batch[self.edge_index[0]]
            if not bool(np.all(edge_graph == self.batch[self.edge_index[1]])):
                raise ValueError("edges must not cross subgraph boundaries")
            if np.any(np.diff(edge_graph) < 0):
                raise ValueError("edges must be grouped by subgraph in order")


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
    nodes, edges = batch.node_offsets, batch.edge_offsets
    inverse, first = group_keys(zip(
        segment_bytes(batch.node_types, nodes),
        segment_bytes(batch.local_edges, edges),
        segment_bytes(batch.edge_types, edges),
        segment_bytes(batch.local_anchors, np.arange(batch.num_graphs + 1)),
        segment_bytes(batch.pe, nodes),
    ))
    if first.size == batch.num_graphs:
        return DistinctSubgraphs(int(first.size))
    representatives = batch.select(first)
    return DistinctSubgraphs(int(first.size), representatives,
                             representatives.node_offsets[inverse[batch.batch]]
                             + batch.segments().slots)


def _collate_subgraphs(subgraphs: Sequence[Subgraph]) -> SubgraphBatch:
    """Concatenate :class:`Subgraph` objects (missing PE or statistics
    become zero-width or zero rows)."""
    pe_dim = next((s.pe.shape[1] for s in subgraphs if s.pe is not None), 0)
    stats_dim = next((s.node_stats.shape[1] for s in subgraphs if s.node_stats is not None), 0)
    sizes = np.array([s.num_nodes for s in subgraphs], dtype=np.int64)
    starts = _offsets(sizes)[:-1]
    return SubgraphBatch(
        node_types=np.concatenate([s.node_types for s in subgraphs]),
        edge_index=np.concatenate([s.edge_index for s in subgraphs], axis=1)
        + np.repeat(starts, [s.num_edges for s in subgraphs]),
        edge_types=np.concatenate([s.edge_types for s in subgraphs]),
        batch=np.repeat(np.arange(len(subgraphs)), sizes),
        anchors=np.array([s.anchors for s in subgraphs], dtype=np.int64) + starts[:, None],
        pe=np.concatenate([np.zeros((s.num_nodes, pe_dim)) if s.pe is None else s.pe
                           for s in subgraphs]),
        node_stats=np.concatenate([np.zeros((s.num_nodes, stats_dim)) if s.node_stats is None
                                   else s.node_stats for s in subgraphs]),
        labels=np.array([s.label for s in subgraphs], dtype=FLOAT64),
        targets=np.array([s.target for s in subgraphs], dtype=FLOAT64),
        link_types=np.array([s.link_type for s in subgraphs], dtype=np.int64),
        node_ids=(None if any(s.node_ids is None for s in subgraphs)
                  else np.concatenate([s.node_ids for s in subgraphs])),
    )


def collate(samples) -> SubgraphBatch:
    """One :class:`SubgraphBatch` of ``samples``.

    * A block is returned as is.
    * ``(block, index)`` pairs (the daemon's micro-batcher coalesces the
      subgraphs of several requests' blocks) are cut from their blocks and
      joined by offset arithmetic.
    * :class:`Subgraph` objects are concatenated one by one.

    A block without an attached PE gets a zero-width one.
    """
    if not len(samples):
        raise ValueError("cannot collate an empty list of subgraphs")
    if isinstance(samples, SubgraphBatch):
        block = samples
    elif isinstance(samples[0], tuple):
        block = SubgraphBatch.concat([
            run[0][0].select([index for _, index in run])
            for run in (list(group) for _, group in
                        itertools.groupby(samples, key=lambda pair: id(pair[0])))
        ])
    else:
        block = _collate_subgraphs(samples)
    if block.pe is None:
        block.pe = np.zeros((block.num_nodes, 0))
    return block
