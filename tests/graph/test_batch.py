"""Tests for subgraph batching (disjoint-union collation)."""

import numpy as np
import pytest

from repro.graph import batch_iterator, collate, compute_pe, default_link_pipeline


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


class TestBatchIterator:
    def test_covers_all_samples(self, samples):
        seen = 0
        for batch in batch_iterator(samples, 16, shuffle=False):
            seen += batch.num_graphs
        assert seen == len(samples)

    def test_drop_last(self, samples):
        batches = list(batch_iterator(samples, 16, shuffle=False, drop_last=True))
        assert all(b.num_graphs == 16 for b in batches)

    def test_shuffle_changes_order(self, samples):
        first = next(iter(batch_iterator(samples, 8, shuffle=True, rng=0)))
        second = next(iter(batch_iterator(samples, 8, shuffle=True, rng=99)))
        assert not np.array_equal(first.labels, second.labels) or \
            not np.array_equal(first.targets, second.targets)

    def test_invalid_batch_size(self, samples):
        with pytest.raises(ValueError):
            list(batch_iterator(samples, 0))
