"""Tests for the functional interface (scatter ops, segment ops, padding, dropout)."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import assert_gradients_close


class TestScatterOps:
    def test_scatter_add_values(self):
        src = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = F.scatter_add(src, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[4.0], [6.0]])

    def test_scatter_mean_values(self):
        src = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = F.scatter_mean(src, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [6.0], [0.0]])

    def test_scatter_mean_empty_bucket_is_zero(self):
        src = Tensor(np.ones((2, 3)))
        out = F.scatter_mean(src, np.array([0, 0]), 4)
        np.testing.assert_allclose(out.data[1:], np.zeros((3, 3)))

    def test_scatter_add_gradients(self):
        src = Tensor(np.random.default_rng(0).normal(size=(5, 2)), requires_grad=True)
        weights = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
        assert_gradients_close(
            lambda: (F.scatter_add(src, np.array([0, 1, 2, 0, 1]), 3) * weights).sum(), src)

    def test_scatter_mean_gradients(self):
        src = Tensor(np.random.default_rng(0).normal(size=(4, 2)), requires_grad=True)
        assert_gradients_close(
            lambda: (F.scatter_mean(src, np.array([0, 0, 1, 1]), 2) ** 2).sum(), src)


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        scores = Tensor(np.random.default_rng(0).normal(size=(6, 1)))
        index = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_softmax(scores, index, 3)
        sums = np.zeros(3)
        np.add.at(sums, index, out.data[:, 0])
        np.testing.assert_allclose(sums, np.ones(3), atol=1e-8)

    def test_stable_with_large_scores(self):
        scores = Tensor(np.array([[1000.0], [1000.0], [999.0]]))
        out = F.segment_softmax(scores, np.array([0, 0, 0]), 1)
        assert np.all(np.isfinite(out.data))

    def test_gradients(self):
        scores = Tensor(np.random.default_rng(0).normal(size=(5, 1)), requires_grad=True)
        index = np.array([0, 0, 1, 1, 1])
        weights = Tensor(np.random.default_rng(1).normal(size=(5, 1)))
        assert_gradients_close(
            lambda: (F.segment_softmax(scores, index, 2) * weights).sum(), scores, atol=1e-4)


class TestSegmentOps:
    """The segment engine: values, gradients, empty segments, padding."""

    def test_segment_sum_matches_scatter_add(self):
        src = Tensor(np.random.default_rng(0).normal(size=(6, 3)))
        index = np.array([0, 2, 1, 2, 0, 1])
        np.testing.assert_allclose(F.segment_sum(src, index, 3).data,
                                   F.scatter_add(src, index, 3).data)

    def test_segment_mean_values(self):
        src = Tensor(np.array([[2.0], [4.0], [9.0]]))
        out = F.segment_mean(src, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])

    def test_segment_max_values_and_empty_segment(self):
        src = Tensor(np.array([[1.0], [5.0], [-3.0]]))
        out = F.segment_max(src, np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.data, [[5.0], [0.0], [-3.0], [0.0]])

    def test_segment_sum_gradients(self):
        src = Tensor(np.random.default_rng(0).normal(size=(5, 2)), requires_grad=True)
        weights = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
        assert_gradients_close(
            lambda: (F.segment_sum(src, np.array([0, 1, 2, 0, 1]), 3) * weights).sum(), src)

    def test_segment_max_gradients(self):
        # Distinct values keep the argmax stable under finite-difference probes.
        src = Tensor(np.array([[1.0, 7.0], [4.0, 2.0], [9.0, 3.0], [0.5, 5.0]]),
                     requires_grad=True)
        weights = Tensor(np.random.default_rng(1).normal(size=(2, 2)))
        assert_gradients_close(
            lambda: (F.segment_max(src, np.array([0, 0, 1, 1]), 2) * weights).sum(), src)

    def test_segment_softmax_gradients(self):
        scores = Tensor(np.random.default_rng(2).normal(size=(6, 1)), requires_grad=True)
        index = np.array([0, 1, 0, 1, 1, 2])
        weights = Tensor(np.random.default_rng(3).normal(size=(6, 1)))
        assert_gradients_close(
            lambda: (F.segment_softmax(scores, index, 3) * weights).sum(), scores, atol=1e-4)

    def test_ops_on_single_node_graphs(self):
        """Every segment holds one row: reductions are the identity."""
        src = Tensor(np.random.default_rng(4).normal(size=(4, 3)), requires_grad=True)
        index = np.arange(4)
        np.testing.assert_allclose(F.segment_sum(src, index, 4).data, src.data)
        np.testing.assert_allclose(F.segment_mean(src, index, 4).data, src.data)
        np.testing.assert_allclose(F.segment_max(src, index, 4).data, src.data)
        np.testing.assert_allclose(F.segment_softmax(src, index, 4).data,
                                   np.ones_like(src.data))

    def test_empty_segment_receives_no_gradient(self):
        src = Tensor(np.ones((2, 2)), requires_grad=True)
        out = F.segment_sum(src, np.array([0, 3]), 5)
        out.sum().backward()
        np.testing.assert_allclose(src.grad, np.ones((2, 2)))

    def test_segment_info_layout(self):
        seg = F.segment_info(np.array([4, 0, 4, 0, 0, 9]))
        assert seg.num_segments == 3
        np.testing.assert_array_equal(seg.index, [1, 0, 1, 0, 0, 2])
        np.testing.assert_array_equal(seg.counts, [3, 2, 1])
        np.testing.assert_array_equal(seg.slots, [0, 0, 1, 1, 2, 0])
        assert seg.max_count == 3
        assert seg.mask.sum() == 6

    def test_segment_info_passthrough_and_empty(self):
        seg = F.segment_info(np.array([0, 0, 1]))
        assert F.segment_info(seg) is seg
        empty = F.segment_info(np.zeros(0, dtype=np.int64))
        assert empty.num_segments == 0 and empty.max_count == 0

    def test_ops_accept_segment_info(self):
        src = Tensor(np.random.default_rng(5).normal(size=(5, 2)))
        index = np.array([0, 1, 0, 2, 1])
        seg = F.segment_info(index)
        for op in (F.segment_sum, F.segment_mean, F.segment_max, F.segment_softmax):
            np.testing.assert_allclose(op(src, seg).data, op(src, index, 3).data)


class TestPaddedBatching:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        for batch in ([0, 0, 1, 1, 1], [2, 0, 2, 1, 0, 2], [0], [3, 3, 3]):
            index = np.array(batch)
            x = Tensor(rng.normal(size=(len(index), 4)))
            padded, seg = F.to_padded(x, index)
            assert padded.shape == (seg.num_segments, seg.max_count, 4)
            np.testing.assert_allclose(F.from_padded(padded, seg).data, x.data)

    def test_mask_marks_valid_slots(self):
        x = Tensor(np.ones((3, 2)))
        padded, seg = F.to_padded(x, np.array([0, 0, 1]))
        np.testing.assert_array_equal(seg.mask, [[True, True], [True, False]])
        np.testing.assert_allclose(padded.data[~seg.mask], 0.0)

    def test_pad_value(self):
        x = Tensor(np.ones((3, 2)))
        padded, seg = F.to_padded(x, np.array([0, 0, 1]), pad_value=-5.0)
        np.testing.assert_allclose(padded.data[~seg.mask], -5.0)
        np.testing.assert_allclose(padded.data[seg.mask], 1.0)

    def test_interleaved_batch_preserves_row_order(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(6, 1))
        padded, seg = F.to_padded(x, np.array([0, 1, 0, 1, 0, 1]))
        np.testing.assert_allclose(padded.data[:, :, 0], [[0, 2, 4], [1, 3, 5]])
        np.testing.assert_allclose(F.from_padded(padded, seg).data, x.data)

    def test_roundtrip_gradients(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
        index = np.array([1, 0, 1, 2, 0])
        weights = Tensor(np.random.default_rng(2).normal(size=(5, 3)))

        def loss():
            padded, seg = F.to_padded(x, index)
            return (F.from_padded(padded * 2.0, seg) * weights).sum()

        assert_gradients_close(loss, x)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.to_padded(Tensor(np.ones((3, 2))), np.array([0, 0]))


class TestDropoutHelper:
    def test_dropout_helper_respects_training_flag(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(F.dropout(x, 0.5, False, rng).data, x.data)
        assert np.any(F.dropout(x, 0.5, True, rng).data == 0.0)


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_allclose(F.softmax(x).data.sum(axis=-1), np.ones(4), rtol=1e-12)

    def test_log_softmax_is_the_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12)

    def test_sigmoid_and_tanh_match_numpy(self):
        values = np.linspace(-4.0, 4.0, 9)
        np.testing.assert_allclose(F.sigmoid(Tensor(values)).data, 1.0 / (1.0 + np.exp(-values)),
                                   rtol=1e-12)
        np.testing.assert_allclose(F.tanh(Tensor(values)).data, np.tanh(values), rtol=1e-12)
