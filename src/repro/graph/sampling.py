"""Enclosing-subgraph sampling (Section III-B of the paper).

This module holds the class balancing, link injection and extraction steps of
the paper's recipe; the permute-endpoint negatives live in
:mod:`repro.graph.negative`, and :mod:`repro.graph.datapipe` chains all of
them into pipelines.

* **Class balancing** — the pin-net links vastly outnumber net-net links; the
  training set keeps ``|E_n2n|`` samples of each type.
* **Enclosing subgraph extraction** — the h-hop enclosing subgraph of a node
  pair ``(m, n)`` is the subgraph induced by all nodes within h hops of m or
  n (Definition 1).  ``h = 1`` is the paper's default for link-level tasks
  and ``h = 2`` for node-level tasks.

Extraction is batched only: :func:`extract_enclosing_subgraphs` and
:func:`extract_node_subgraphs` take a list of seeds, expand all of them in
one pass and return the flat arrays they built as one
:class:`~repro.graph.batch.SubgraphBatch` block (flat node ids, node and edge
offsets, local edges, edge types and anchors).  ``block[i]`` is seed ``i``'s
:class:`~repro.graph.batch.Subgraph`; one subgraph is a one-element block.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import get_rng
from ..nn.dtypes import FLOAT64
from .batch import SubgraphBatch
from .hetero import LINK_TYPE_NAMES, CircuitGraph, Link

__all__ = [
    "normalize_fanouts",
    "balance_links",
    "inject_link_edges",
    "extract_enclosing_subgraphs",
    "extract_node_subgraphs",
    "link_type_histogram",
]


# --------------------------------------------------------------------------- #
# Fanout plans, balancing and injection
# --------------------------------------------------------------------------- #
def normalize_fanouts(fanouts) -> tuple | None:
    """Normalise a per-hop fanout plan to a tuple of ``int | None`` caps.

    Accepts an int or a sequence of per-hop caps; ``-1`` or ``None`` entries
    mean "no cap at that hop" (the graphbolt convention).  The plan's length
    fixes the number of hops wherever a plan is given.
    """
    if fanouts is None:
        return None
    if isinstance(fanouts, (int, np.integer)):
        fanouts = [fanouts]
    plan = []
    for cap in fanouts:
        if cap is None or int(cap) < 0:
            plan.append(None)
        elif int(cap) == 0:
            raise ValueError("fanout caps must be positive, None or -1 (uncapped)")
        else:
            plan.append(int(cap))
    if not plan:
        raise ValueError("a fanout plan needs at least one hop")
    return tuple(plan)


def balance_links(links: list[Link], per_type: int | None = None, rng=None) -> list[Link]:
    """Balance the link list so every link type has the same number of samples.

    Following Section III-B, the default keeps ``min_t |E_t|`` links of every
    type (the count of the rarest type, net-net in practice).
    """
    rng = get_rng(rng)
    by_type: dict[int, list[Link]] = {}
    for link in links:
        by_type.setdefault(link.link_type, []).append(link)
    if not by_type:
        return []
    budget = per_type if per_type is not None else min(len(v) for v in by_type.values())
    balanced: list[Link] = []
    for link_type in sorted(by_type):
        group = by_type[link_type]
        if len(group) <= budget:
            balanced.extend(group)
        else:
            chosen = rng.choice(len(group), size=budget, replace=False)
            balanced.extend(group[i] for i in chosen)
    return balanced


def inject_link_edges(graph: CircuitGraph, links: list[Link]) -> CircuitGraph:
    """Return a copy of ``graph`` with the given links added as edges.

    Section IV of the paper: "we followed the setup of SEAL, where both the
    positive edges and the negative edges were injected into the original
    circuit graph" before enclosing-subgraph sampling.  The injected edges use
    the link type as their edge type, so the sampled neighbourhoods expose the
    local coupling topology to the model.  Because negatives are injected too,
    the presence of an anchor-to-anchor edge carries no label information.
    """
    if not links:
        return graph
    extra_index = np.array([[l.source for l in links], [l.target for l in links]], dtype=np.int64)
    extra_types = np.array([l.link_type for l in links], dtype=np.int64)
    return CircuitGraph(
        name=graph.name,
        node_types=graph.node_types,
        node_names=graph.node_names,
        edge_index=np.concatenate([graph.edge_index, extra_index], axis=1),
        edge_types=np.concatenate([graph.edge_types, extra_types]),
        node_stats=graph.node_stats,
        links=list(graph.links),
        node_ground_caps=graph.node_ground_caps,
    )


# --------------------------------------------------------------------------- #
# Enclosing subgraph extraction (all seeds in one pass)
# --------------------------------------------------------------------------- #
# A chunk of queries is processed with dense (num_queries x num_nodes) masks;
# this budget caps the number of mask cells (~5 bytes per cell transient).
_EXTRACT_CELL_BUDGET = 8_000_000


def _extract_many(graph: CircuitGraph, src: np.ndarray, dst: np.ndarray, hops: int,
                  max_nodes_per_hop: int | None, rng, single_anchor: bool,
                  fanouts: tuple | None = None,
                  target_types: np.ndarray | None = None) -> SubgraphBatch:
    """Extract the h-hop subgraphs of many ``(src, dst)`` anchor pairs at once.

    Every per-hop expansion runs over the concatenated frontiers of *all*
    queries simultaneously: frontiers are ``(query, node)`` pairs expanded
    with one ragged CSR gather per hop, with membership and local re-indexing
    resolved through dense per-chunk masks — pure index arithmetic, amortising
    the numpy call overhead across the whole batch (the graphbolt idiom).

    Returns one block, each subgraph listing its anchors first and the
    remaining nodes in ascending global order.  ``target_types`` appends an
    anchor-to-anchor edge of that type to the end of each subgraph's edges.
    Labels, targets and link types are left for the caller to fill.
    """
    csr = graph.csr
    num_queries = src.shape[0]
    n = graph.num_nodes
    num_edges = max(csr.num_edges, 1)

    # (query, node) visited bitmap: row-major nonzero order == sorted by
    # (query, ascending node id), which is the "others" order after the anchors.
    visited_mask = np.zeros((num_queries, n), dtype=bool)
    query_range = np.arange(num_queries, dtype=np.int64)
    visited_mask[query_range, src] = True
    visited_mask[query_range, dst] = True
    frontier_query, frontier_node = np.nonzero(visited_mask)
    for hop in range(hops):
        if frontier_node.size == 0:
            break
        cap = fanouts[hop] if fanouts is not None else max_nodes_per_hop
        flat, counts = csr._half_edges(frontier_node, cap, rng,
                                       return_counts=True)
        owner = np.repeat(frontier_query, counts)
        neigh = csr.indices[flat]
        fresh = ~visited_mask[owner, neigh]
        if not fresh.any():
            break
        keys = np.unique(owner[fresh] * n + neigh[fresh])
        frontier_query, frontier_node = keys // n, keys % n
        visited_mask[frontier_query, frontier_node] = True

    v_query, v_node = np.nonzero(visited_mask)
    v_query = v_query.astype(np.int64)
    v_node = v_node.astype(np.int64)
    node_counts = visited_mask.sum(axis=1)
    seg_offsets = np.cumsum(node_counts) - node_counts

    # Local ordering: anchors first, then ascending global id.  ``rank`` is the
    # ascending position inside each query segment; subtracting the anchors
    # that precede a node turns it into the "others" position.
    rank = np.arange(v_node.size, dtype=np.int64) - seg_offsets[v_query]
    if single_anchor:
        local = 1 + rank - (src[v_query] < v_node)
    else:
        local = 2 + rank - (src[v_query] < v_node) - (dst[v_query] < v_node)
    local_map = np.full((num_queries, n), -1, dtype=np.int32)
    local_map[v_query, v_node] = local
    local_map[query_range, src] = 0
    if not single_anchor:
        local_map[query_range, dst] = 1

    node_ids = np.empty(v_node.size, dtype=np.int64)
    node_ids[seg_offsets[v_query] + local_map[v_query, v_node]] = v_node

    # Induced edges: one ragged gather over every (query, node) pair; an edge
    # survives when its far endpoint is in the same query's node set.  Each
    # internal edge shows up once per endpoint — keeping only the canonical
    # ``neighbour > node`` half (self-loops handled apart) dedupes without a
    # full unique, leaving one sort to group edges by query in ascending id.
    flat, counts = csr._half_edges(v_node, return_counts=True)
    neigh = csr.indices[flat]
    node_rep = np.repeat(v_node, counts)
    e_query = np.repeat(v_query, counts)
    inside = visited_mask[e_query, neigh]
    canonical = inside & (neigh > node_rep)
    edge_keys = e_query[canonical] * num_edges + csr.edge_ids[flat[canonical]]
    loops = inside & (neigh == node_rep)
    if loops.any():
        loop_keys = np.unique(e_query[loops] * num_edges + csr.edge_ids[flat[loops]])
        edge_keys = np.concatenate([edge_keys, loop_keys])
    edge_keys = np.sort(edge_keys)
    ee_query, ee_id = edge_keys // num_edges, edge_keys % num_edges
    edge_counts = np.bincount(ee_query, minlength=num_queries)
    local_edges = np.stack([local_map[ee_query, graph.edge_index[0][ee_id]],
                            local_map[ee_query, graph.edge_index[1][ee_id]]]).astype(np.int64)
    edge_types = graph.edge_types[ee_id]
    if target_types is not None:
        ends = np.cumsum(edge_counts)
        local_edges = np.insert(local_edges, ends, [[0], [1]], axis=1)
        edge_types = np.insert(edge_types, ends, target_types)
        edge_counts = edge_counts + 1

    edge_query = np.repeat(query_range, edge_counts)
    anchors = np.array([0, 0] if single_anchor else [0, 1], dtype=np.int64)
    return SubgraphBatch(
        node_types=graph.node_types[node_ids],
        edge_index=local_edges + seg_offsets[edge_query],
        edge_types=edge_types,
        batch=v_query,
        anchors=seg_offsets[:, None] + anchors,
        pe=None,
        node_stats=(np.zeros((node_ids.size, 0)) if graph.node_stats is None
                    else graph.node_stats[node_ids]),
        labels=np.zeros(num_queries, dtype=FLOAT64),
        targets=np.zeros(num_queries, dtype=FLOAT64),
        link_types=np.full(num_queries, -1, dtype=np.int64),
        node_ids=node_ids,
    )


def _extract_many_chunked(graph: CircuitGraph, src: np.ndarray, dst: np.ndarray,
                          hops: int, max_nodes_per_hop: int | None, rng,
                          single_anchor: bool, fanouts=None,
                          target_types: np.ndarray | None = None) -> SubgraphBatch:
    """Run :func:`_extract_many` in query chunks bounded by the cell budget
    and join the chunks' blocks.

    Normalises the shared arguments first: ``rng`` through ``get_rng`` and
    ``fanouts`` through :func:`normalize_fanouts` (a plan fixes ``hops``).
    """
    rng = get_rng(rng)
    fanouts = normalize_fanouts(fanouts)
    if fanouts is not None:
        hops = len(fanouts)
    chunk = max(1, _EXTRACT_CELL_BUDGET // max(graph.num_nodes, 1))
    return SubgraphBatch.concat([
        _extract_many(graph, src[start:start + chunk], dst[start:start + chunk], hops,
                      max_nodes_per_hop, rng, single_anchor, fanouts,
                      None if target_types is None else target_types[start:start + chunk])
        for start in range(0, max(src.shape[0], 1), chunk)
    ])


def extract_enclosing_subgraphs(graph: CircuitGraph, links: list[Link], hops: int = 1,
                                max_nodes_per_hop: int | None = None,
                                add_target_edge: bool = True, rng=None,
                                fanouts=None) -> SubgraphBatch:
    """Extract the h-hop enclosing subgraph of every link (Definition 1).

    All links expand together, so every numpy operation is amortised over
    the batch, and the result is one block (``block[i]`` is link ``i``'s
    :class:`~repro.graph.batch.Subgraph`).  Each subgraph lists the link's endpoints first
    (local indices 0 and 1), then the other nodes in ascending global id.

    Parameters
    ----------
    graph:
        The host circuit graph.
    links:
        The target links (positive or negative).
    hops:
        Neighbourhood radius ``h``; the paper uses 1 for link tasks.
    max_nodes_per_hop:
        Optional cap on the half-edges each frontier node expands per hop
        (guards against hub nodes in very large designs).  Capped nodes draw
        a uniform sample from ``rng``.
    add_target_edge:
        If True, an edge of the link's type is added between the two anchors —
        the SEAL-style "inject target links into the graph" setup the paper
        follows.  Both positives and negatives receive the edge, so it carries
        no label information.
    fanouts:
        Optional per-hop expansion caps (overrides ``hops`` and
        ``max_nodes_per_hop``; see :func:`normalize_fanouts`).
    """
    src = np.array([l.source for l in links], dtype=np.int64)
    dst = np.array([l.target for l in links], dtype=np.int64)
    link_types = np.array([l.link_type for l in links], dtype=np.int64)
    block = _extract_many_chunked(graph, src, dst, hops, max_nodes_per_hop, rng,
                                  single_anchor=False, fanouts=fanouts,
                                  target_types=link_types if add_target_edge else None)
    block.labels = np.array([l.label for l in links], dtype=FLOAT64)
    block.targets = np.array([l.capacitance for l in links], dtype=FLOAT64)
    block.link_types = link_types
    return block


def extract_node_subgraphs(graph: CircuitGraph, nodes, hops: int = 2,
                           targets=None, max_nodes_per_hop: int | None = None,
                           rng=None, fanouts=None) -> SubgraphBatch:
    """Extract the h-hop subgraph around every anchor node (node-level tasks).

    Used for ground-capacitance regression (Section IV-D): no negative links
    are injected, a 2-hop neighbourhood is sampled, and the two DSPD anchors
    coincide (``anchors == (0, 0)``), making ``D0 == D1``.  ``targets``
    aligns one regression target with each node.  Returns one block.
    """
    nodes = np.asarray(list(nodes), dtype=np.int64)
    block = _extract_many_chunked(graph, nodes, nodes, hops, max_nodes_per_hop, rng,
                                  single_anchor=True, fanouts=fanouts)
    block.labels = np.ones(nodes.size, dtype=FLOAT64)
    if targets is not None:
        block.targets = np.array(targets, dtype=FLOAT64)
    return block


def link_type_histogram(links: list[Link]) -> dict[str, int]:
    """Counts of links per human-readable type name (used in reports/tests)."""
    histogram: dict[str, int] = {}
    for link in links:
        name = LINK_TYPE_NAMES.get(link.link_type, str(link.link_type))
        histogram[name] = histogram.get(name, 0) + 1
    return histogram

