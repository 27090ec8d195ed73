"""Compressed-sparse-row graph kernel.

The enclosing-subgraph workflow (Section III-B) touches the adjacency of every
candidate link: h-hop frontier expansion, induced-subgraph extraction and BFS
distances for the positional encodings.  This module provides a small CSR
kernel where all of those run as numpy index arithmetic — ragged neighbour
gathers, boolean visited masks and per-segment ranking — instead of per-node
Python loops.

A :class:`CSRGraph` is built once per host graph (``CircuitGraph.csr``) and
is shared by subgraph sampling, ECO halos and sharding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import get_rng

__all__ = ["CSRGraph"]


def _ragged_flat(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering ``starts[i] : starts[i] + counts[i]`` for all ``i``.

    The index vector is ``repeat(starts - seg_offsets, counts) + arange``,
    where ``seg_offsets`` are the output positions of each segment — the
    standard vectorised ragged gather.  One call serves any number of arrays
    sliced the same way.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if counts.size else 0
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    seg_offsets = ends - counts
    return np.repeat(starts - seg_offsets, counts) + np.arange(total, dtype=np.int64)


@dataclass
class CSRGraph:
    """Symmetric CSR adjacency over an undirected typed edge list.

    Attributes
    ----------
    indptr:
        ``(N + 1,)`` row pointers.
    indices:
        ``(2E,)`` neighbour node ids, grouped by source node.
    edge_ids:
        ``(2E,)`` id of the undirected edge behind each half-edge (each edge of
        ``edge_index`` appears twice, once per direction).
    edge_index:
        ``(2, E)`` the original undirected edge list (each edge stored once).
    edge_types:
        ``(E,)`` optional edge-type codes aligned with ``edge_index``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    edge_index: np.ndarray
    edge_types: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, num_nodes: int, edge_index: np.ndarray,
                   edge_types: np.ndarray | None = None) -> "CSRGraph":
        """Build the symmetric CSR adjacency of an undirected edge list."""
        edge_index = np.asarray(edge_index, dtype=np.int64)
        num_edges = edge_index.shape[1] if edge_index.size else 0
        src = np.concatenate([edge_index[0], edge_index[1]]) if num_edges else np.zeros(0, np.int64)
        dst = np.concatenate([edge_index[1], edge_index[0]]) if num_edges else np.zeros(0, np.int64)
        eids = np.concatenate([np.arange(num_edges), np.arange(num_edges)])
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return cls(indptr=indptr, indices=dst[order], edge_ids=eids[order],
                   edge_index=edge_index.reshape(2, -1), edge_types=edge_types)

    # ------------------------------------------------------------------ #
    # Pickling (worker-process transport)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle only the defining edge list, not the derived adjacency.

        ``indptr`` / ``indices`` / ``edge_ids`` are a deterministic function
        of ``(num_nodes, edge_index)``, so dropping them roughly halves the
        payload shipped to ``spawn``-style worker processes; the receiving
        side rebuilds an identical adjacency in :meth:`__setstate__`.
        """
        return {"num_nodes": self.num_nodes, "edge_index": self.edge_index,
                "edge_types": self.edge_types}

    def __setstate__(self, state: dict) -> None:
        rebuilt = CSRGraph.from_edges(state["num_nodes"], state["edge_index"],
                                      state["edge_types"])
        self.__dict__.update(rebuilt.__dict__)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return int(self.indptr.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored as two half-edges)."""
        return int(self.edge_index.shape[1])

    def neighbors(self, node: int) -> np.ndarray:
        """O(1) neighbour slice of one node."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of every node as one array."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------ #
    # Vectorised frontier primitives
    # ------------------------------------------------------------------ #
    def _half_edges(self, nodes: np.ndarray, max_per_node: int | None = None,
                    rng=None, return_counts: bool = False):
        """Flat half-edge positions of all edges incident to ``nodes``.

        With ``max_per_node`` set, nodes whose degree exceeds the cap
        contribute a uniform random sample of ``max_per_node`` of their
        half-edges (per-segment ranking over random keys — no Python loop).
        With ``return_counts`` the per-node contribution counts are returned
        too (after capping), so callers can attribute half-edges to owners.
        """
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        flat = _ragged_flat(starts, counts)
        if max_per_node is None or not (counts > max_per_node).any():
            return (flat, counts) if return_counts else flat
        rng = get_rng(rng)
        total = flat.shape[0]
        owner = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), counts)
        order = np.lexsort((rng.random(total), owner))
        seg_offsets = np.cumsum(counts) - counts
        rank = np.arange(total, dtype=np.int64) - np.repeat(seg_offsets, counts)
        flat = flat[order[rank < max_per_node]]
        if return_counts:
            return flat, np.minimum(counts, max_per_node)
        return flat

    def k_hop(self, seeds, hops: int) -> np.ndarray:
        """All nodes within ``hops`` of any seed (sorted, seeds included).

        Frontier expansion over a boolean visited mask; each hop is one ragged
        gather plus one unique.  (Capped, per-seed expansion for subgraph
        sampling lives in :func:`repro.graph.sampling.extract_enclosing_subgraphs`.)
        """
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        visited = np.zeros(self.num_nodes, dtype=bool)
        visited[seeds] = True
        frontier = np.unique(seeds)
        for _ in range(hops):
            if frontier.size == 0:
                break
            neigh = self.indices[self._half_edges(frontier)]
            fresh = neigh[~visited[neigh]]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            visited[frontier] = True
        return np.flatnonzero(visited).astype(np.int64)

    def bfs_distances(self, source, unreachable: int,
                      max_distance: int | None = None) -> np.ndarray:
        """BFS distances from ``source`` (one node or an array of seed nodes).

        Unreached nodes hold ``unreachable``; the search stops after
        ``max_distance`` levels when given.
        """
        sources = np.atleast_1d(np.asarray(source, dtype=np.int64))
        distances = np.full(self.num_nodes, unreachable, dtype=np.int64)
        visited = np.zeros(self.num_nodes, dtype=bool)
        distances[sources] = 0
        visited[sources] = True
        frontier = np.unique(sources)
        depth = 0
        while frontier.size:
            if max_distance is not None and depth >= max_distance:
                break
            depth += 1
            neigh = self.indices[self._half_edges(frontier)]
            fresh = neigh[~visited[neigh]]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            visited[frontier] = True
            distances[frontier] = depth
        return distances

    def induced_subgraph(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edges with both endpoints inside ``nodes``, re-indexed locally.

        ``nodes`` defines the local ordering; returns ``(local_edge_index,
        picked_edge_ids)`` with the picked ids in ascending order (one entry
        per undirected edge).  Cost is proportional to the degree sum of
        ``nodes``, all in index arithmetic.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        local = np.full(self.num_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
        flat = self._half_edges(nodes)
        picked = np.unique(self.edge_ids[flat[local[self.indices[flat]] >= 0]])
        if picked.size == 0:
            return np.zeros((2, 0), dtype=np.int64), picked
        src = local[self.edge_index[0][picked]]
        dst = local[self.edge_index[1][picked]]
        return np.stack([src, dst]), picked
