"""Tests for the parameter initialisation schemes."""

import numpy as np
import pytest

from repro.nn import init


class TestXavierUniform:
    def test_values_stay_within_the_glorot_limit(self):
        weights = init.xavier_uniform((30, 20), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 50.0)
        assert weights.shape == (30, 20)
        assert np.abs(weights).max() <= limit
        assert np.abs(weights).max() > 0.9 * limit

    def test_variance_matches_two_over_fan_sum(self):
        weights = init.xavier_uniform((200, 300), np.random.default_rng(1))
        assert weights.var() == pytest.approx(2.0 / 500.0, rel=0.05)

    def test_gain_scales_the_draw(self):
        plain = init.xavier_uniform((8, 4), np.random.default_rng(2))
        scaled = init.xavier_uniform((8, 4), np.random.default_rng(2), gain=3.0)
        np.testing.assert_allclose(scaled, 3.0 * plain, rtol=1e-12)

    def test_vector_shape_uses_its_length_for_both_fans(self):
        weights = init.xavier_uniform((12,), np.random.default_rng(3))
        assert np.abs(weights).max() <= np.sqrt(6.0 / 24.0)


class TestConstantAndNormal:
    def test_zeros_are_float64(self):
        values = init.zeros((3, 2))
        assert values.dtype == np.float64
        assert not values.any()

    def test_normal_uses_the_requested_spread(self):
        values = init.normal((400, 50), np.random.default_rng(4), std=0.1)
        assert values.mean() == pytest.approx(0.0, abs=5e-3)
        assert values.std() == pytest.approx(0.1, rel=0.02)
