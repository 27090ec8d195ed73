"""Tests for subgraph batching (disjoint-union collation)."""

import numpy as np
import pytest

from repro.graph import (
    SubgraphBatch,
    collate,
    compute_pe,
    compute_pe_batch,
    default_link_pipeline,
    extract_enclosing_subgraphs,
)


@pytest.fixture(scope="module")
def samples(small_design):
    subgraphs = default_link_pipeline(max_links=40).run(small_design.graph, rng=0)
    for subgraph in subgraphs:
        compute_pe(subgraph, "dspd")
    return subgraphs


class TestCollate:
    def test_counts_add_up(self, samples):
        batch = collate(samples[:8])
        batch.validate()
        assert batch.num_graphs == 8
        assert batch.num_nodes == sum(s.num_nodes for s in samples[:8])
        assert batch.num_edges == sum(s.num_edges for s in samples[:8])

    def test_batch_vector_is_grouped(self, samples):
        batch = collate(samples[:5])
        boundaries = np.flatnonzero(np.diff(batch.batch)) + 1
        assert len(boundaries) == 4
        assert np.all(np.diff(batch.batch) >= 0)

    def test_edges_stay_within_graphs(self, samples):
        batch = collate(samples[:10])
        assert np.all(batch.batch[batch.edge_index[0]] == batch.batch[batch.edge_index[1]])

    def test_anchor_indices_offset_correctly(self, samples):
        batch = collate(samples[:4])
        offset = 0
        for graph_id, subgraph in enumerate(samples[:4]):
            assert batch.anchors[graph_id, 0] == offset + subgraph.anchors[0]
            assert batch.anchors[graph_id, 1] == offset + subgraph.anchors[1]
            assert batch.node_types[offset] == subgraph.node_types[0]
            offset += subgraph.num_nodes

    def test_labels_targets_preserved(self, samples):
        batch = collate(samples[:6])
        np.testing.assert_allclose(batch.labels, [s.label for s in samples[:6]])
        np.testing.assert_allclose(batch.targets, [s.target for s in samples[:6]])
        np.testing.assert_array_equal(batch.link_types, [s.link_type for s in samples[:6]])

    def test_pe_and_stats_concatenated(self, samples):
        batch = collate(samples[:3])
        assert batch.pe.shape == (batch.num_nodes, samples[0].pe.shape[1])
        assert batch.node_stats.shape == (batch.num_nodes, samples[0].node_stats.shape[1])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            collate([])

    def test_inconsistent_pe_dims_raise(self, samples):
        import copy

        bad = copy.deepcopy(samples[:2])
        bad[1].pe = np.zeros((bad[1].num_nodes, 3))
        with pytest.raises(ValueError):
            collate(bad)


def batch_bytes(batch) -> tuple:
    return tuple(np.ascontiguousarray(getattr(batch, name)).tobytes() for name in (
        "node_types", "edge_index", "edge_types", "batch", "anchors", "pe",
        "node_stats", "labels", "targets", "link_types", "node_ids"))


@pytest.fixture(scope="module")
def blocks(small_design):
    """Two extracted blocks with their PEs attached."""
    graph = small_design.graph
    found = []
    for links in (graph.links[:9], graph.links[9:14]):
        block = extract_enclosing_subgraphs(graph, links, hops=1)
        block.pe = compute_pe_batch(block, "dspd")
        found.append(block)
    return found


class TestBlocks:
    def test_views_collate_back_to_the_block(self, blocks):
        block = blocks[0]
        block.validate()
        views = list(block)
        assert len(views) == len(block) == block.num_graphs
        assert batch_bytes(collate(views)) == batch_bytes(block)
        assert collate(block) is block
        assert block[-1].node_ids.tobytes() == views[-1].node_ids.tobytes()
        with pytest.raises(IndexError):
            block[len(block)]

    def test_view_arrays_are_local(self, blocks):
        block = blocks[0]
        for index, view in enumerate(block):
            view.validate()
            start = block.node_offsets[index]
            assert view.anchors == (0, 1)
            assert view.num_nodes == block.node_offsets[index + 1] - start
            np.testing.assert_array_equal(view.pe, block.pe[start:start + view.num_nodes])

    def test_select_is_the_collate_of_the_selected_views(self, blocks):
        block = blocks[0]
        order = [4, 0, 4, 7]
        assert batch_bytes(block.select(order)) == batch_bytes(
            collate([block[i] for i in order]))
        assert block.select(range(len(block))) is block

    def test_concat_and_pairs_join_blocks(self, blocks):
        first, second = blocks
        views = list(first) + list(second)
        assert batch_bytes(SubgraphBatch.concat([first, second])) == batch_bytes(collate(views))
        pairs = [(first, 2), (first, 5), (second, 0), (first, 1), (second, 3)]
        assert batch_bytes(collate(pairs)) == batch_bytes(
            collate([first[2], first[5], second[0], first[1], second[3]]))

    def test_mixed_pe_widths_do_not_join(self, blocks):
        first, second = blocks
        bare = second.select([0, 1])
        bare.pe = None
        with pytest.raises(ValueError, match="PE"):
            SubgraphBatch.concat([first, bare])

    def test_block_without_pe_collates_with_a_zero_width_pe(self, small_design):
        block = extract_enclosing_subgraphs(small_design.graph, small_design.graph.links[:3])
        assert block.pe is None and block[0].pe is None
        assert collate(block).pe.shape == (block.num_nodes, 0)

    def test_validate_rejects_unordered_segments(self, blocks):
        import copy

        block = copy.deepcopy(blocks[0])
        block.batch = block.batch[::-1].copy()
        with pytest.raises(ValueError, match="grouped"):
            block.validate()
        block = copy.deepcopy(blocks[0])
        block.edge_index = block.edge_index[:, ::-1].copy()
        with pytest.raises(ValueError, match="grouped"):
            block.validate()

