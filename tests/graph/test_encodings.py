"""Tests for the positional/structural encodings (Table II variants)."""

import numpy as np
import pytest

from repro.graph import (
    PE_KINDS,
    Subgraph,
    collate,
    compute_pe,
    compute_pe_batch,
    drnl_encoding,
    dspd_encoding,
    extract_enclosing_subgraphs,
    laplacian_encoding,
    pe_dim,
    rwse_encoding,
    stats_encoding,
)
from repro.graph.encodings import DSPD_MAX_DISTANCE


def _path_subgraph(num_nodes=5, anchors=(0, 4)):
    """A path graph 0-1-2-...-(n-1) wrapped as a Subgraph."""
    edges = np.array([[i for i in range(num_nodes - 1)], [i + 1 for i in range(num_nodes - 1)]])
    return Subgraph(
        node_ids=np.arange(num_nodes),
        node_types=np.zeros(num_nodes, dtype=np.int64),
        edge_index=edges,
        edge_types=np.zeros(num_nodes - 1, dtype=np.int64),
        anchors=anchors,
        node_stats=np.arange(num_nodes * 13, dtype=float).reshape(num_nodes, 13),
    )


class TestDSPD:
    def test_shape_and_one_hot(self):
        subgraph = _path_subgraph()
        encoding = dspd_encoding(subgraph)
        assert encoding.shape == (5, 2 * (DSPD_MAX_DISTANCE + 1))
        np.testing.assert_allclose(encoding.sum(axis=1), 2 * np.ones(5))

    def test_anchor_distances(self):
        subgraph = _path_subgraph()
        encoding = dspd_encoding(subgraph)
        # Node 0 is anchor 0: distance 0 to itself, distance 4 -> clipped bucket to anchor 1.
        assert encoding[0, 0] == 1.0
        assert encoding[0, (DSPD_MAX_DISTANCE + 1) + DSPD_MAX_DISTANCE] == 1.0
        # Node 2 is at distance 2 from both anchors.
        assert encoding[2, 2] == 1.0
        assert encoding[2, (DSPD_MAX_DISTANCE + 1) + 2] == 1.0

    def test_unreachable_nodes_use_last_bucket(self):
        subgraph = _path_subgraph()
        # Disconnect node 4 by dropping the last edge.
        subgraph.edge_index = subgraph.edge_index[:, :-1]
        subgraph.edge_types = subgraph.edge_types[:-1]
        encoding = dspd_encoding(subgraph)
        assert encoding[4, DSPD_MAX_DISTANCE] == 1.0  # unreachable from anchor 0

    def test_node_level_anchors_give_identical_halves(self):
        subgraph = _path_subgraph(anchors=(0, 0))
        encoding = dspd_encoding(subgraph)
        half = DSPD_MAX_DISTANCE + 1
        np.testing.assert_allclose(encoding[:, :half], encoding[:, half:])


class TestDRNL:
    def test_anchors_get_label_one(self):
        encoding = drnl_encoding(_path_subgraph())
        assert encoding[0, 1] == 1.0
        assert encoding[4, 1] == 1.0

    def test_labels_valid_one_hot(self):
        encoding = drnl_encoding(_path_subgraph(7, anchors=(0, 6)))
        np.testing.assert_allclose(encoding.sum(axis=1), np.ones(7))

    def test_symmetric_nodes_share_label(self):
        encoding = drnl_encoding(_path_subgraph())
        np.testing.assert_allclose(encoding[1], encoding[3])  # distance (1,3) vs (3,1)


class TestRWSE:
    def test_shape_and_range(self):
        encoding = rwse_encoding(_path_subgraph(), steps=6)
        assert encoding.shape == (5, 6)
        assert np.all(encoding >= 0.0) and np.all(encoding <= 1.0)

    def test_odd_step_return_probability_zero_on_path(self):
        encoding = rwse_encoding(_path_subgraph(), steps=4)
        # A path graph is bipartite: no odd-length closed walks.
        np.testing.assert_allclose(encoding[:, 0], np.zeros(5))
        np.testing.assert_allclose(encoding[:, 2], np.zeros(5))

    def test_isolated_node_safe(self):
        subgraph = _path_subgraph()
        subgraph.edge_index = np.zeros((2, 0), dtype=np.int64)
        subgraph.edge_types = np.zeros(0, dtype=np.int64)
        encoding = rwse_encoding(subgraph)
        assert np.all(np.isfinite(encoding))


class TestLapPE:
    def test_shape(self):
        encoding = laplacian_encoding(_path_subgraph(), dim=3)
        assert encoding.shape == (5, 3)

    def test_eigenvectors_orthogonal(self):
        encoding = laplacian_encoding(_path_subgraph(8, anchors=(0, 7)), dim=3)
        gram = encoding.T @ encoding
        off_diag = gram - np.diag(np.diag(gram))
        assert np.all(np.abs(off_diag) < 1e-8)

    def test_sign_fixed_deterministically(self):
        a = laplacian_encoding(_path_subgraph(), dim=2)
        b = laplacian_encoding(_path_subgraph(), dim=2)
        np.testing.assert_allclose(a, b)

    def test_small_graph_zero_padded(self):
        encoding = laplacian_encoding(_path_subgraph(2, anchors=(0, 1)), dim=4)
        assert encoding.shape == (2, 4)
        np.testing.assert_allclose(encoding[:, 1:], 0.0)


class TestStatsAndDispatch:
    def test_stats_encoding_scales_columns(self):
        encoding = stats_encoding(_path_subgraph())
        assert np.abs(encoding).max() <= 1.0 + 1e-12

    def test_stats_encoding_requires_stats(self):
        subgraph = _path_subgraph()
        subgraph.node_stats = None
        with pytest.raises(ValueError):
            stats_encoding(subgraph)

    def test_pe_dim_consistent_with_compute_pe(self):
        subgraph = _path_subgraph()
        for kind in PE_KINDS:
            encoding = compute_pe(subgraph, kind)
            assert encoding.shape == (subgraph.num_nodes, pe_dim(kind))
            assert subgraph.pe is encoding

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            compute_pe(_path_subgraph(), "fourier")
        with pytest.raises(ValueError):
            pe_dim("fourier")

    def test_real_subgraph_encodings_finite(self, small_design):
        graph = small_design.graph
        [subgraph] = extract_enclosing_subgraphs(graph, graph.links[:1], hops=1)
        for kind in PE_KINDS:
            encoding = compute_pe(subgraph, kind)
            assert np.all(np.isfinite(encoding))


class TestBatchedDispatch:
    """``compute_pe_batch`` runs every non-BFS kind through ``ENCODINGS``."""

    @pytest.mark.parametrize("kind", ["none", "stats", "rwse", "lappe"])
    def test_registered_kinds_match_their_encoder(self, kind, small_design):
        from repro.api import ENCODINGS

        graph = small_design.graph
        subgraphs = extract_enclosing_subgraphs(graph, graph.links[:6], hops=1)
        pe = compute_pe_batch(subgraphs, kind)
        assert pe.dtype == np.float64
        assert pe.shape == (subgraphs.num_nodes, pe_dim(kind))
        bounds = subgraphs.node_offsets
        for i, subgraph in enumerate(subgraphs):
            want = ENCODINGS.get(kind)(subgraph)
            np.testing.assert_array_equal(pe[bounds[i]:bounds[i + 1]], want)

    def test_custom_registration_is_dispatched(self):
        from repro.api import ENCODINGS

        def degree_encoding(subgraph):
            degree = np.bincount(subgraph.edge_index.ravel(), minlength=subgraph.num_nodes)
            return degree[:, None]  # integer: compute_pe_batch casts to float64

        ENCODINGS.register("test_degree", degree_encoding)
        try:
            subgraphs = collate([_path_subgraph(4, (0, 3)), _path_subgraph(6, (1, 2))])
            pe = compute_pe_batch(subgraphs, "TEST_DEGREE")
        finally:
            ENCODINGS.unregister("test_degree")
        np.testing.assert_array_equal(pe[:4, 0], [1.0, 2.0, 2.0, 1.0])
        np.testing.assert_array_equal(pe[4:, 0], [1.0, 2.0, 2.0, 2.0, 2.0, 1.0])
        assert pe.dtype == np.float64
        assert "test_degree" not in ENCODINGS
        with pytest.raises(ValueError, match="test_degree"):
            compute_pe_batch(subgraphs, "test_degree")
