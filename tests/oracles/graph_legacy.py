"""Legacy pure-Python reference implementations (parity oracle).

These are the original per-node-loop versions of enclosing-subgraph
extraction, negative sampling and the BFS-based positional encodings, kept
verbatim so the vectorised CSR kernel in `csr.py` / `sampling.py` /
`encodings.py` can be checked against them.  They are used only by the parity
tests and the sampling-throughput benchmark; production code goes through the
vectorised path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.hetero import CircuitGraph, Link
from repro.utils.rng import get_rng

__all__ = [
    "legacy_generate_negative_links",
    "legacy_extract_enclosing_subgraph",
    "legacy_extract_node_subgraph",
    "legacy_dspd_encoding",
    "legacy_drnl_encoding",
    "legacy_rwse_encoding",
    "legacy_laplacian_encoding",
    "legacy_compute_pe",
]


# --------------------------------------------------------------------------- #
# Negative sampling
# --------------------------------------------------------------------------- #
def legacy_generate_negative_links(graph: CircuitGraph, ratio: float = 1.0, rng=None,
                                   max_tries: int = 50) -> list[Link]:
    """Rejection-sampled structural negatives, one candidate at a time."""
    rng = get_rng(rng)
    positives_by_type: dict[int, list[Link]] = {}
    for link in graph.links:
        positives_by_type.setdefault(link.link_type, []).append(link)

    existing = {link.key() for link in graph.links}
    negatives: list[Link] = []
    for link_type, positives in positives_by_type.items():
        sources = np.array([l.source for l in positives], dtype=np.int64)
        targets = np.array([l.target for l in positives], dtype=np.int64)
        wanted = int(round(len(positives) * ratio))
        produced = 0
        tries = 0
        seen = set(existing)
        while produced < wanted and tries < max_tries * max(1, wanted):
            tries += 1
            s = int(sources[rng.integers(len(sources))])
            t = int(targets[rng.integers(len(targets))])
            if s == t:
                continue
            key = (s, t) if s <= t else (t, s)
            if key in seen:
                continue
            seen.add(key)
            negatives.append(Link(source=s, target=t, link_type=link_type,
                                  label=0.0, capacitance=0.0))
            produced += 1
    return negatives


# --------------------------------------------------------------------------- #
# Subgraph extraction
# --------------------------------------------------------------------------- #
def _induced_subgraph_loop(graph: CircuitGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node loop over CSR slices, collecting edges inside ``nodes``."""
    local_of = {int(g): i for i, g in enumerate(nodes)}
    csr = graph.csr
    indptr, indices, edge_ids = csr.indptr, csr.indices, csr.edge_ids
    picked: set[int] = set()
    for global_id in nodes:
        start, stop = indptr[global_id], indptr[global_id + 1]
        for neighbour, edge_id in zip(indices[start:stop], edge_ids[start:stop]):
            if int(neighbour) in local_of:
                picked.add(int(edge_id))
    if not picked:
        return np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    edge_list = np.array(sorted(picked), dtype=np.int64)
    src = np.array([local_of[int(s)] for s in graph.edge_index[0][edge_list]], dtype=np.int64)
    dst = np.array([local_of[int(t)] for t in graph.edge_index[1][edge_list]], dtype=np.int64)
    return np.stack([src, dst]), graph.edge_types[edge_list].copy()


def _expand_frontier_loop(graph: CircuitGraph, seeds: list[int], hops: int,
                          max_nodes_per_hop: int | None, rng) -> set[int]:
    visited = {int(s) for s in seeds}
    frontier = list(visited)
    for _ in range(hops):
        next_frontier: list[int] = []
        for node in frontier:
            neighbours = graph.neighbors(node)
            if max_nodes_per_hop is not None and len(neighbours) > max_nodes_per_hop:
                neighbours = rng.choice(neighbours, size=max_nodes_per_hop, replace=False)
            for neighbour in neighbours:
                neighbour = int(neighbour)
                if neighbour not in visited:
                    visited.add(neighbour)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return visited


def legacy_extract_enclosing_subgraph(graph: CircuitGraph, link: Link, hops: int = 1,
                                      max_nodes_per_hop: int | None = None,
                                      add_target_edge: bool = True, rng=None):
    """Original per-node BFS implementation of Definition 1."""
    from repro.graph import Subgraph

    rng = get_rng(rng)
    visited = _expand_frontier_loop(graph, [link.source, link.target], hops,
                                    max_nodes_per_hop, rng)
    others = sorted(visited - {link.source, link.target})
    node_ids = np.array([link.source, link.target] + others, dtype=np.int64)
    edge_index, edge_types = _induced_subgraph_loop(graph, node_ids)

    if add_target_edge:
        edge_index = np.concatenate([edge_index, np.array([[0], [1]])], axis=1)
        edge_types = np.concatenate([edge_types, np.array([link.link_type])])

    return Subgraph(
        node_ids=node_ids,
        node_types=graph.node_types[node_ids].copy(),
        edge_index=edge_index,
        edge_types=edge_types,
        anchors=(0, 1),
        label=float(link.label),
        target=float(link.capacitance),
        link_type=int(link.link_type),
        node_stats=None if graph.node_stats is None else graph.node_stats[node_ids].copy(),
    )


def legacy_extract_node_subgraph(graph: CircuitGraph, node: int, hops: int = 2,
                                 target: float = 0.0, max_nodes_per_hop: int | None = None,
                                 rng=None):
    """Original per-node BFS implementation of the node-level sampler."""
    from repro.graph import Subgraph

    rng = get_rng(rng)
    visited = _expand_frontier_loop(graph, [int(node)], hops, max_nodes_per_hop, rng)
    others = sorted(visited - {int(node)})
    node_ids = np.array([int(node)] + others, dtype=np.int64)
    edge_index, edge_types = _induced_subgraph_loop(graph, node_ids)
    return Subgraph(
        node_ids=node_ids,
        node_types=graph.node_types[node_ids].copy(),
        edge_index=edge_index,
        edge_types=edge_types,
        anchors=(0, 0),
        label=1.0,
        target=float(target),
        link_type=-1,
        node_stats=None if graph.node_stats is None else graph.node_stats[node_ids].copy(),
    )


# --------------------------------------------------------------------------- #
# Encodings (adjacency lists + Python BFS)
# --------------------------------------------------------------------------- #
def _local_adjacency(subgraph) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(subgraph.num_nodes)]
    for s, t in subgraph.edge_index.T:
        adjacency[int(s)].append(int(t))
        adjacency[int(t)].append(int(s))
    return adjacency


def _bfs_distances(adjacency: list[list[int]], source: int, unreachable: int) -> np.ndarray:
    distances = np.full(len(adjacency), unreachable, dtype=np.int64)
    distances[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: list[int] = []
        for node in frontier:
            for neighbour in adjacency[node]:
                if distances[neighbour] == unreachable:
                    distances[neighbour] = depth
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return distances


def _one_hot(values: np.ndarray, num_classes: int) -> np.ndarray:
    clipped = np.clip(values, 0, num_classes - 1)
    encoded = np.zeros((values.shape[0], num_classes))
    encoded[np.arange(values.shape[0]), clipped] = 1.0
    return encoded


def legacy_dspd_encoding(subgraph, max_distance: int | None = None) -> np.ndarray:
    from repro.graph.encodings import DSPD_MAX_DISTANCE

    max_distance = DSPD_MAX_DISTANCE if max_distance is None else max_distance
    adjacency = _local_adjacency(subgraph)
    unreachable = max_distance
    d0 = _bfs_distances(adjacency, subgraph.anchors[0], unreachable=max_distance + 1)
    d1 = _bfs_distances(adjacency, subgraph.anchors[1], unreachable=max_distance + 1)
    d0 = np.minimum(d0, unreachable)
    d1 = np.minimum(d1, unreachable)
    return np.concatenate([_one_hot(d0, max_distance + 1), _one_hot(d1, max_distance + 1)], axis=1)


def legacy_drnl_encoding(subgraph, max_label: int | None = None) -> np.ndarray:
    from repro.graph.encodings import DRNL_MAX_LABEL

    max_label = DRNL_MAX_LABEL if max_label is None else max_label
    adjacency = _local_adjacency(subgraph)
    big = 10 ** 6
    dx = _bfs_distances(adjacency, subgraph.anchors[0], unreachable=big)
    dy = _bfs_distances(adjacency, subgraph.anchors[1], unreachable=big)
    labels = np.zeros(subgraph.num_nodes, dtype=np.int64)
    for i in range(subgraph.num_nodes):
        if i in subgraph.anchors:
            labels[i] = 1
            continue
        if dx[i] >= big or dy[i] >= big:
            labels[i] = 0
            continue
        d = dx[i] + dy[i]
        labels[i] = 1 + min(dx[i], dy[i]) + (d // 2) * (d // 2 + d % 2 - 1)
    labels = np.clip(labels, 0, max_label - 1)
    return _one_hot(labels, max_label)


def _dense_adjacency_loop(subgraph) -> np.ndarray:
    n = subgraph.num_nodes
    adjacency = np.zeros((n, n))
    for s, t in subgraph.edge_index.T:
        adjacency[int(s), int(t)] = 1.0
        adjacency[int(t), int(s)] = 1.0
    return adjacency


def legacy_rwse_encoding(subgraph, steps: int | None = None) -> np.ndarray:
    from repro.graph.encodings import RWSE_STEPS

    steps = RWSE_STEPS if steps is None else steps
    n = subgraph.num_nodes
    adjacency = _dense_adjacency_loop(subgraph)
    degrees = adjacency.sum(axis=1)
    degrees[degrees == 0] = 1.0
    transition = adjacency / degrees[:, None]
    encoding = np.zeros((n, steps))
    power = np.eye(n)
    for k in range(steps):
        power = power @ transition
        encoding[:, k] = np.diag(power)
    return encoding


def legacy_laplacian_encoding(subgraph, dim: int | None = None) -> np.ndarray:
    from repro.graph.encodings import LAPPE_DIM

    dim = LAPPE_DIM if dim is None else dim
    n = subgraph.num_nodes
    adjacency = _dense_adjacency_loop(subgraph)
    degrees = adjacency.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    laplacian = np.eye(n) - (inv_sqrt[:, None] * adjacency * inv_sqrt[None, :])
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    order = np.argsort(eigenvalues)
    encoding = np.zeros((n, dim))
    selected = order[1:dim + 1]
    for column, eig_index in enumerate(selected):
        vector = eigenvectors[:, eig_index]
        nonzero = np.nonzero(np.abs(vector) > 1e-12)[0]
        if nonzero.size and vector[nonzero[0]] < 0:
            vector = -vector
        encoding[:, column] = vector
    return encoding


def legacy_compute_pe(subgraph, kind: str = "dspd") -> np.ndarray:
    """Dispatch mirroring :func:`repro.graph.encodings.compute_pe` (no caching)."""
    kind = kind.lower()
    if kind == "dspd":
        return legacy_dspd_encoding(subgraph)
    if kind == "drnl":
        return legacy_drnl_encoding(subgraph)
    if kind == "rwse":
        return legacy_rwse_encoding(subgraph)
    if kind == "lappe":
        return legacy_laplacian_encoding(subgraph)
    raise ValueError(f"legacy oracle has no PE kind {kind!r}")
