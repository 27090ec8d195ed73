"""Tests for the CSR graph kernel and its parity with the legacy Python path.

The vectorised extractors and encodings must produce *identical* subgraphs and
encodings to the original per-node-loop implementations (kept in
``tests/oracles/graph_legacy.py`` as the parity oracle), both on randomised graphs and on
a real design.
"""

import numpy as np
import pytest

from repro.graph import (
    CircuitGraph,
    CSRGraph,
    Link,
    extract_enclosing_subgraphs,
    extract_node_subgraphs,
    permute_negative_links,
)
from repro.graph.encodings import (
    compute_pe_batch,
    drnl_encoding,
    dspd_encoding,
    laplacian_encoding,
    rwse_encoding,
)
from tests.oracles.graph_legacy import (
    legacy_drnl_encoding,
    legacy_dspd_encoding,
    legacy_extract_enclosing_subgraph,
    legacy_extract_node_subgraph,
    legacy_generate_negative_links,
    legacy_laplacian_encoding,
    legacy_rwse_encoding,
)


def enclosing(graph, link, **kwargs):
    """The enclosing subgraph of one link (a one-element batch)."""
    return extract_enclosing_subgraphs(graph, [link], **kwargs)[0]


def negatives_of(graph, ratio, rng):
    """The paper's non-strict permute-endpoint negatives of a design."""
    return permute_negative_links(graph.links, graph.num_nodes, ratio=ratio, rng=rng,
                                  strict=False)


def random_graph(num_nodes: int, num_edges: int, seed: int) -> CircuitGraph:
    """A random multigraph wrapped as a CircuitGraph (types are arbitrary)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    links = []
    for _ in range(max(4, num_edges // 4)):
        a, b = rng.integers(0, num_nodes, size=2)
        if a != b:
            links.append(Link(int(a), int(b), link_type=int(rng.integers(2, 5)),
                              capacitance=float(rng.random() * 1e-16)))
    return CircuitGraph(
        name=f"random-{seed}",
        node_types=rng.integers(0, 3, size=num_nodes),
        node_names=[f"n{i}" for i in range(num_nodes)],
        edge_index=np.stack([src, dst]),
        edge_types=rng.integers(0, 2, size=num_edges),
        node_stats=rng.random((num_nodes, 5)),
        links=links,
    )


# --------------------------------------------------------------------------- #
# Topology generators for the randomized parity sweep
# --------------------------------------------------------------------------- #
def _with_random_links(rng, num_nodes: int, edge_index: np.ndarray,
                       name: str) -> CircuitGraph:
    """Wrap an edge list as a CircuitGraph with random metadata and links."""
    num_edges = edge_index.shape[1]
    links = []
    for _ in range(6):
        a, b = rng.integers(0, num_nodes, size=2)
        if a != b:
            links.append(Link(int(a), int(b), link_type=int(rng.integers(2, 5)),
                              capacitance=float(rng.random() * 1e-16)))
    return CircuitGraph(
        name=name,
        node_types=rng.integers(0, 3, size=num_nodes),
        node_names=[f"n{i}" for i in range(num_nodes)],
        edge_index=edge_index,
        edge_types=rng.integers(0, 2, size=num_edges),
        node_stats=rng.random((num_nodes, 4)),
        links=links,
    )


def chain_topology(seed: int) -> CircuitGraph:
    """A simple path 0-1-...-n: every BFS layer has exactly one new node."""
    rng = np.random.default_rng([100, seed])
    n = int(rng.integers(8, 32))
    edges = np.stack([np.arange(n - 1), np.arange(1, n)])
    return _with_random_links(rng, n, edges, f"chain-{seed}")


def star_topology(seed: int) -> CircuitGraph:
    """A few hubs with many leaves: degree-skewed, diameter <= 4."""
    rng = np.random.default_rng([200, seed])
    hubs = int(rng.integers(1, 4))
    leaves_per_hub = int(rng.integers(5, 20))
    sources, targets = [], []
    next_node = hubs
    for hub in range(hubs):
        for _ in range(leaves_per_hub):
            sources.append(hub)
            targets.append(next_node)
            next_node += 1
        if hub:  # connect the hubs into a chain so the graph has one core
            sources.append(hub - 1)
            targets.append(hub)
    edges = np.array([sources, targets], dtype=np.int64)
    return _with_random_links(rng, next_node, edges, f"star-{seed}")


def disconnected_topology(seed: int) -> CircuitGraph:
    """Several random components with no edges between them."""
    rng = np.random.default_rng([300, seed])
    sources, targets = [], []
    offset = 0
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(n - 1, 2 * n))
        sources.extend((offset + rng.integers(0, n, size=m)).tolist())
        targets.extend((offset + rng.integers(0, n, size=m)).tolist())
        offset += n
    edges = np.array([sources, targets], dtype=np.int64)
    return _with_random_links(rng, offset, edges, f"disconnected-{seed}")


def multigraph_topology(seed: int) -> CircuitGraph:
    """A self-loop-free multigraph: parallel edges, no ``(i, i)`` edges."""
    rng = np.random.default_rng([400, seed])
    n = int(rng.integers(10, 40))
    m = int(rng.integers(2 * n, 4 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    collision = src == dst
    dst[collision] = (dst[collision] + 1 + rng.integers(0, n - 1, size=int(collision.sum()))) % n
    duplicates = rng.integers(0, m, size=m // 3)  # guarantee parallel edges
    src = np.concatenate([src, src[duplicates]])
    dst = np.concatenate([dst, dst[duplicates]])
    assert not (src == dst).any()
    edges = np.stack([src, dst])
    return _with_random_links(rng, n, edges, f"multigraph-{seed}")


TOPOLOGIES = {
    "chain": chain_topology,
    "star": star_topology,
    "disconnected": disconnected_topology,
    "multigraph": multigraph_topology,
}


class TestCSRGraph:
    def test_known_small_graph(self):
        # Path 0-1-2 plus edge 0-2: every node has degree 2.
        edge_index = np.array([[0, 1, 0], [1, 2, 2]])
        csr = CSRGraph.from_edges(3, edge_index)
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        np.testing.assert_array_equal(csr.degrees(), [2, 2, 2])
        assert set(csr.neighbors(0).tolist()) == {1, 2}
        assert set(csr.neighbors(1).tolist()) == {0, 2}

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(4, np.zeros((2, 0), dtype=np.int64))
        assert csr.num_nodes == 4
        np.testing.assert_array_equal(csr.degrees(), np.zeros(4))
        assert csr.k_hop([2], 3).tolist() == [2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bfs_matches_dict_bfs(self, seed):
        graph = random_graph(60, 120, seed)
        csr = graph.csr
        for source in (0, 17, 42):
            distances = csr.bfs_distances(source, unreachable=-1)
            # Reference: plain dict BFS.
            ref = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for node in frontier:
                    for neighbour in csr.neighbors(node):
                        if int(neighbour) not in ref:
                            ref[int(neighbour)] = ref[node] + 1
                            nxt.append(int(neighbour))
                frontier = nxt
            for node in range(csr.num_nodes):
                assert distances[node] == ref.get(node, -1)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_k_hop_matches_set_expansion(self, seed):
        graph = random_graph(50, 90, seed)
        csr = graph.csr
        for hops in (1, 2, 3):
            visited = {5, 11}
            frontier = {5, 11}
            for _ in range(hops):
                frontier = {int(m) for node in frontier for m in csr.neighbors(node)} - visited
                visited |= frontier
            np.testing.assert_array_equal(csr.k_hop([5, 11], hops), sorted(visited))

    def test_induced_subgraph_picks_internal_edges_only(self):
        graph = random_graph(40, 80, 7)
        nodes = np.array([3, 8, 15, 22, 31])
        local_edges, picked = graph.csr.induced_subgraph(nodes)
        node_set = set(nodes.tolist())
        for edge_id in picked:
            s, t = graph.edge_index[0][edge_id], graph.edge_index[1][edge_id]
            assert int(s) in node_set and int(t) in node_set
        # All internal edges picked, in ascending id order.
        expected = [e for e in range(graph.num_edges)
                    if int(graph.edge_index[0][e]) in node_set
                    and int(graph.edge_index[1][e]) in node_set]
        assert picked.tolist() == expected
        if local_edges.size:
            assert local_edges.max() < len(nodes)

    def test_max_per_node_caps_expansion(self):
        graph = random_graph(30, 400, 9)  # dense: high degrees
        link = Link(0, 1, link_type=2)
        full = enclosing(graph, link, hops=1, add_target_edge=False)
        capped = enclosing(graph, link, hops=1, max_nodes_per_hop=3, rng=0,
                           add_target_edge=False)
        assert capped.num_nodes <= min(full.num_nodes, 2 + 2 * 3)
        assert set(capped.node_ids.tolist()) <= set(full.node_ids.tolist())


class TestExtractionParity:
    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_enclosing_subgraph_matches_legacy(self, seed, hops):
        graph = random_graph(80, 160, seed)
        for link in graph.links[:10]:
            new = enclosing(graph, link, hops=hops)
            old = legacy_extract_enclosing_subgraph(graph, link, hops=hops)
            np.testing.assert_array_equal(new.node_ids, old.node_ids)
            np.testing.assert_array_equal(new.edge_index, old.edge_index)
            np.testing.assert_array_equal(new.edge_types, old.edge_types)
            np.testing.assert_array_equal(new.node_types, old.node_types)
            np.testing.assert_allclose(new.node_stats, old.node_stats)
            assert new.anchors == old.anchors
            assert new.label == old.label and new.target == old.target

    @pytest.mark.parametrize("seed", [14, 15])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_batched_extraction_matches_legacy(self, seed, hops):
        graph = random_graph(70, 140, seed)
        batched = extract_enclosing_subgraphs(graph, graph.links, hops=hops,
                                              add_target_edge=False)
        assert len(batched) == len(graph.links)
        for link, new in zip(graph.links, batched):
            old = legacy_extract_enclosing_subgraph(graph, link, hops=hops,
                                                    add_target_edge=False)
            np.testing.assert_array_equal(new.node_ids, old.node_ids)
            np.testing.assert_array_equal(new.edge_index, old.edge_index)
            np.testing.assert_array_equal(new.edge_types, old.edge_types)

    @pytest.mark.parametrize("seed", [16, 17])
    def test_node_subgraphs_match_legacy(self, seed):
        graph = random_graph(60, 110, seed)
        nodes = list(range(0, graph.num_nodes, 7))
        batched = extract_node_subgraphs(graph, nodes, hops=2)
        for node, new in zip(nodes, batched):
            single = extract_node_subgraphs(graph, [node], hops=2)[0]
            old = legacy_extract_node_subgraph(graph, node, hops=2)
            for candidate in (new, single):
                np.testing.assert_array_equal(candidate.node_ids, old.node_ids)
                np.testing.assert_array_equal(candidate.edge_index, old.edge_index)
                assert candidate.anchors == (0, 0)

    def test_real_design_parity(self, small_design):
        graph = small_design.graph
        links = graph.links[:30]
        batched = extract_enclosing_subgraphs(graph, links, hops=1)
        for link, new in zip(links, batched):
            old = legacy_extract_enclosing_subgraph(graph, link, hops=1)
            np.testing.assert_array_equal(new.node_ids, old.node_ids)
            np.testing.assert_array_equal(new.edge_index, old.edge_index)
            np.testing.assert_array_equal(new.edge_types, old.edge_types)


class TestEncodingParity:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_all_encodings_match_legacy(self, seed):
        graph = random_graph(50, 100, seed)
        for link in graph.links[:8]:
            subgraph = enclosing(graph, link, hops=2)
            np.testing.assert_allclose(dspd_encoding(subgraph), legacy_dspd_encoding(subgraph))
            np.testing.assert_allclose(drnl_encoding(subgraph), legacy_drnl_encoding(subgraph))
            np.testing.assert_allclose(rwse_encoding(subgraph), legacy_rwse_encoding(subgraph))
            np.testing.assert_allclose(laplacian_encoding(subgraph),
                                       legacy_laplacian_encoding(subgraph))

    @pytest.mark.parametrize("kind", ["dspd", "drnl"])
    def test_batched_pe_matches_per_subgraph(self, kind):
        graph = random_graph(60, 120, 23)
        subgraphs = extract_enclosing_subgraphs(graph, graph.links[:12], hops=2)
        legacy_fn = legacy_dspd_encoding if kind == "dspd" else legacy_drnl_encoding
        pe = compute_pe_batch(subgraphs, kind)
        assert pe.shape[0] == subgraphs.num_nodes
        bounds = subgraphs.node_offsets
        for i, subgraph in enumerate(subgraphs):
            np.testing.assert_allclose(pe[bounds[i]:bounds[i + 1]], legacy_fn(subgraph))

    def test_hub_degree_over_256_no_wraparound(self):
        # A star with 300 leaves: the dense BFS frontier product must not wrap
        # in a narrow integer dtype (a node adjacent to a multiple-of-256
        # frontier would silently look unreachable).
        from repro.graph import Subgraph

        leaves = 300
        hub_a, hub_b = 0, 1
        src = np.concatenate([[hub_a], np.full(leaves, hub_b)])
        dst = np.concatenate([[hub_b], np.arange(2, leaves + 2)])
        subgraph = Subgraph(
            node_ids=np.arange(leaves + 2),
            node_types=np.zeros(leaves + 2, dtype=np.int64),
            edge_index=np.stack([src, dst]),
            edge_types=np.zeros(leaves + 1, dtype=np.int64),
            anchors=(hub_a, hub_b),
        )
        np.testing.assert_allclose(dspd_encoding(subgraph), legacy_dspd_encoding(subgraph))
        np.testing.assert_allclose(drnl_encoding(subgraph), legacy_drnl_encoding(subgraph))

    def test_disconnected_anchor_buckets(self):
        # Two components: anchors in one, an isolated pair in the other.
        graph = CircuitGraph(
            name="two-islands",
            node_types=np.zeros(5, dtype=np.int64),
            node_names=[f"n{i}" for i in range(5)],
            edge_index=np.array([[0, 3], [1, 4]]),
            edge_types=np.zeros(2, dtype=np.int64),
            links=[Link(0, 1, 2)],
        )
        subgraph = enclosing(graph, graph.links[0], hops=1,
                                              add_target_edge=False)
        np.testing.assert_allclose(dspd_encoding(subgraph),
                                   legacy_dspd_encoding(subgraph))
        np.testing.assert_allclose(drnl_encoding(subgraph),
                                   legacy_drnl_encoding(subgraph))


class TestTopologySweepParity:
    """Randomized CSR-vs-legacy sweep: 20 seeded graphs per topology family.

    Chains exercise deep BFS layering, stars exercise degree skew and the
    hub-subsampling caps, disconnected graphs exercise unreachable-node
    bucketing, and self-loop-free multigraphs exercise parallel-edge
    handling — each against the pure-Python legacy oracle.
    """

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_extraction_and_encodings_match_legacy(self, topology, seed):
        graph = TOPOLOGIES[topology](seed)
        assert graph.links, f"{topology}-{seed} generated no links"
        for link in graph.links[:3]:
            new = enclosing(graph, link, hops=2)
            old = legacy_extract_enclosing_subgraph(graph, link, hops=2)
            np.testing.assert_array_equal(new.node_ids, old.node_ids)
            np.testing.assert_array_equal(new.edge_index, old.edge_index)
            np.testing.assert_array_equal(new.edge_types, old.edge_types)
            np.testing.assert_array_equal(new.node_types, old.node_types)
            assert new.anchors == old.anchors
            np.testing.assert_allclose(dspd_encoding(new), legacy_dspd_encoding(old))
            np.testing.assert_allclose(drnl_encoding(new), legacy_drnl_encoding(old))

    @pytest.mark.parametrize("seed", range(0, 20, 4))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_batched_extraction_matches_legacy(self, topology, seed):
        graph = TOPOLOGIES[topology](seed)
        batched = extract_enclosing_subgraphs(graph, graph.links, hops=1,
                                              add_target_edge=False)
        for link, new in zip(graph.links, batched):
            old = legacy_extract_enclosing_subgraph(graph, link, hops=1,
                                                    add_target_edge=False)
            np.testing.assert_array_equal(new.node_ids, old.node_ids)
            np.testing.assert_array_equal(new.edge_index, old.edge_index)
            np.testing.assert_array_equal(new.edge_types, old.edge_types)

    @pytest.mark.parametrize("seed", range(0, 20, 4))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_bfs_distances_match_dict_bfs(self, topology, seed):
        graph = TOPOLOGIES[topology](seed)
        csr = graph.csr
        topology_index = sorted(TOPOLOGIES).index(topology)
        source = int(np.random.default_rng([topology_index, seed]).integers(csr.num_nodes))
        distances = csr.bfs_distances(source, unreachable=-1)
        ref = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbour in csr.neighbors(node):
                    if int(neighbour) not in ref:
                        ref[int(neighbour)] = ref[node] + 1
                        nxt.append(int(neighbour))
            frontier = nxt
        for node in range(csr.num_nodes):
            assert distances[node] == ref.get(node, -1)


class TestNegativeSamplingParity:
    @pytest.mark.parametrize("seed", [30, 31])
    def test_same_invariants_as_legacy(self, seed):
        graph = random_graph(80, 150, seed)
        new = negatives_of(graph, ratio=1.0, rng=seed)
        old = legacy_generate_negative_links(graph, ratio=1.0, rng=seed)
        positive_keys = {l.key() for l in graph.links}
        for negatives in (new, old):
            keys = [l.key() for l in negatives]
            assert len(keys) == len(set(keys))          # no duplicates
            assert not (set(keys) & positive_keys)      # no collision with positives
            assert all(l.label == 0.0 and l.capacitance == 0.0 for l in negatives)
        # Endpoints are drawn from the same per-type endpoint pools.
        by_type = {}
        for link in graph.links:
            pools = by_type.setdefault(link.link_type, (set(), set()))
            pools[0].add(link.source)
            pools[1].add(link.target)
        for link in new:
            sources, targets = by_type[link.link_type]
            assert link.source in sources and link.target in targets

    def test_counts_match_legacy(self, small_design):
        graph = small_design.graph
        new = negatives_of(graph, ratio=0.5, rng=0)
        old = legacy_generate_negative_links(graph, ratio=0.5, rng=0)
        assert len(new) == len(old)

    def test_deterministic_given_seed(self, small_design):
        a = negatives_of(small_design.graph, ratio=0.5, rng=3)
        b = negatives_of(small_design.graph, ratio=0.5, rng=3)
        assert [l.key() for l in a] == [l.key() for l in b]


class TestPickleRoundtrip:
    """``__getstate__`` ships only the edge list; ``__setstate__`` must
    rebuild an identical adjacency for every degenerate topology."""

    @staticmethod
    def _roundtrip(csr: CSRGraph) -> CSRGraph:
        import pickle

        return pickle.loads(pickle.dumps(csr))

    @staticmethod
    def _assert_identical(a: CSRGraph, b: CSRGraph) -> None:
        assert b.num_nodes == a.num_nodes
        assert b.num_edges == a.num_edges
        np.testing.assert_array_equal(b.indptr, a.indptr)
        np.testing.assert_array_equal(b.indices, a.indices)
        np.testing.assert_array_equal(b.edge_ids, a.edge_ids)
        np.testing.assert_array_equal(b.edge_index, a.edge_index)
        np.testing.assert_array_equal(b.edge_types, a.edge_types)

    def test_empty_graph_roundtrip(self):
        csr = CSRGraph.from_edges(0, np.zeros((2, 0), dtype=np.int64))
        restored = self._roundtrip(csr)
        self._assert_identical(csr, restored)
        assert restored.degrees().tolist() == []

    def test_edgeless_nodes_roundtrip(self):
        csr = CSRGraph.from_edges(5, np.zeros((2, 0), dtype=np.int64))
        restored = self._roundtrip(csr)
        self._assert_identical(csr, restored)
        np.testing.assert_array_equal(restored.degrees(), np.zeros(5))

    def test_isolated_nodes_among_connected_roundtrip(self):
        # Nodes 2 and 5 never appear in the edge list.
        edge_index = np.array([[0, 1, 3], [1, 3, 4]])
        csr = CSRGraph.from_edges(6, edge_index)
        restored = self._roundtrip(csr)
        self._assert_identical(csr, restored)
        assert restored.neighbors(2).tolist() == []
        assert restored.neighbors(5).tolist() == []
        assert restored.k_hop([2], 2).tolist() == [2]

    def test_self_loops_roundtrip(self):
        edge_index = np.array([[0, 1, 2, 2], [0, 2, 1, 2]])
        csr = CSRGraph.from_edges(3, edge_index)
        restored = self._roundtrip(csr)
        self._assert_identical(csr, restored)
        np.testing.assert_array_equal(restored.degrees(), csr.degrees())
        np.testing.assert_array_equal(restored.bfs_distances(0, unreachable=-1),
                                      csr.bfs_distances(0, unreachable=-1))

    def test_edge_types_survive_roundtrip(self):
        edge_index = np.array([[0, 1], [1, 2]])
        edge_types = np.array([3, 7], dtype=np.int64)
        csr = CSRGraph.from_edges(3, edge_index, edge_types)
        restored = self._roundtrip(csr)
        self._assert_identical(csr, restored)
