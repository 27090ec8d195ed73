"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn import Tensor, bce_with_logits, mse_loss

from ..helpers import assert_gradients_close


class TestBCEWithLogits:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20).astype(float)
        expected = np.mean(
            np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
        )
        loss = bce_with_logits(Tensor(logits), labels)
        assert loss.item() == pytest.approx(expected, rel=1e-10)

    def test_perfect_predictions_give_small_loss(self):
        logits = np.array([20.0, -20.0, 20.0])
        labels = np.array([1.0, 0.0, 1.0])
        assert bce_with_logits(Tensor(logits), labels).item() < 1e-6

    def test_stable_for_extreme_logits(self):
        logits = np.array([1e4, -1e4])
        labels = np.array([0.0, 1.0])
        loss = bce_with_logits(Tensor(logits), labels)
        assert np.isfinite(loss.item())

    def test_pos_weight_increases_positive_penalty(self):
        logits = np.array([-2.0, -2.0])
        labels = np.array([1.0, 0.0])
        plain = bce_with_logits(Tensor(logits), labels).item()
        weighted = bce_with_logits(Tensor(logits), labels, pos_weight=5.0).item()
        assert weighted > plain

    def test_gradients(self):
        logits = Tensor(np.random.default_rng(0).normal(size=8), requires_grad=True)
        labels = np.random.default_rng(1).integers(0, 2, size=8).astype(float)
        assert_gradients_close(lambda: bce_with_logits(logits, labels), logits)


class TestRegressionLosses:
    def test_mse_value(self):
        assert mse_loss(Tensor([1.0, 2.0]), [0.0, 0.0]).item() == pytest.approx(2.5)

    def test_mse_gradients(self):
        pred = Tensor(np.random.default_rng(0).normal(size=6), requires_grad=True)
        target = np.random.default_rng(1).normal(size=6)
        assert_gradients_close(lambda: mse_loss(pred, target), pred)


class TestBCEWithLogitsValues:
    def test_zero_logits_give_log_two(self):
        loss = bce_with_logits(Tensor(np.zeros(6)), np.array([0, 1, 0, 1, 1, 0], dtype=float))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_is_sigmoid_minus_label_over_n(self):
        logits = Tensor(np.array([-3.0, -0.5, 0.25, 1.5, 4.0]), requires_grad=True)
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        bce_with_logits(logits, labels).backward()
        expected = (1.0 / (1.0 + np.exp(-logits.data)) - labels) / labels.size
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-9)

    def test_unit_pos_weight_equals_unweighted(self):
        logits = np.array([-1.0, 0.3, 2.0])
        labels = np.array([1.0, 0.0, 1.0])
        plain = bce_with_logits(Tensor(logits), labels).item()
        assert bce_with_logits(Tensor(logits), labels, pos_weight=1.0).item() == plain

    def test_pos_weight_scales_only_positive_terms(self):
        logits = np.array([0.7, -1.1, 2.3, -0.4])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        per_item = np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
        expected = np.mean(np.where(labels > 0.5, 3.0, 1.0) * per_item)
        loss = bce_with_logits(Tensor(logits), labels, pos_weight=3.0)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_pos_weight_gradients(self):
        logits = Tensor(np.random.default_rng(2).normal(size=7), requires_grad=True)
        labels = np.random.default_rng(3).integers(0, 2, size=7).astype(float)
        assert_gradients_close(lambda: bce_with_logits(logits, labels, pos_weight=2.5), logits)

    def test_list_and_tensor_targets_agree(self):
        logits = np.array([0.2, -0.9, 1.4])
        labels = [1.0, 0.0, 0.0]
        from_list = bce_with_logits(Tensor(logits), labels).item()
        from_tensor = bce_with_logits(Tensor(logits), Tensor(np.array(labels))).item()
        assert from_list == from_tensor


class TestMSEValues:
    def test_zero_at_the_target(self):
        values = np.array([[1.5, -2.0], [0.25, 3.0]])
        assert mse_loss(Tensor(values), values.copy()).item() == 0.0

    def test_two_dimensional_input_averages_every_element(self):
        pred = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        target = np.zeros((2, 3))
        assert mse_loss(Tensor(pred), target).item() == pytest.approx(91.0 / 6.0)

    def test_gradient_is_twice_the_residual_over_n(self):
        pred = Tensor(np.array([0.5, -1.0, 2.0, 3.5]), requires_grad=True)
        target = np.array([1.0, 1.0, 1.0, 1.0])
        mse_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 4.0, rtol=1e-12)
