"""Tests for Linear, Embedding, MLP, normalisation and dropout layers."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    BatchNorm1d,
    Dropout,
    Embedding,
    Linear,
    ReLU,
    Tensor,
)

from ..helpers import assert_gradients_close


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=0)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 15

    def test_zero_input_gives_bias(self):
        layer = Linear(4, 2, rng=0)
        out = layer(Tensor(np.zeros((3, 4))))
        np.testing.assert_allclose(out.data, np.zeros((3, 2)))

    def test_gradients_flow_to_weights(self):
        layer = Linear(4, 2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        assert_gradients_close(lambda: layer(x).sum(), layer.weight)
        assert_gradients_close(lambda: layer(x).sum(), layer.bias)


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 6, rng=0)
        out = table(np.array([0, 3, 9]))
        assert out.shape == (3, 6)

    def test_same_index_same_vector(self):
        table = Embedding(4, 3, rng=0)
        out = table(np.array([2, 2]))
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_out_of_range_raises(self):
        table = Embedding(4, 3, rng=0)
        with pytest.raises(IndexError):
            table(np.array([4]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_gradient_accumulates_for_repeated_indices(self):
        table = Embedding(4, 3, rng=0)
        out = table(np.array([1, 1, 2])).sum()
        out.backward()
        assert table.weight.grad[1].sum() == pytest.approx(6.0)
        assert table.weight.grad[2].sum() == pytest.approx(3.0)
        assert table.weight.grad[0].sum() == pytest.approx(0.0)


class TestNormalisation:
    def test_batchnorm_normalises_training_batch(self):
        bn = BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=0), np.ones(4), atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.random.default_rng(0).normal(loc=2.0, size=(32, 2)))
        bn(x)
        bn.eval()
        single = bn(Tensor(np.array([[2.0, 2.0]])))
        assert np.all(np.isfinite(single.data))

    def test_batchnorm_rejects_3d(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4))))


class TestDropout:
    def test_identity_in_eval_mode(self):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_identity_with_zero_rate(self):
        drop = Dropout(0.0, rng=0)
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_training_mode_zeroes_entries_and_rescales(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((200, 50)))
        out = drop(x).data
        assert np.any(out == 0.0)
        assert out.max() == pytest.approx(2.0)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP([5, 8, 3], rng=0)
        out = mlp(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_activation_choices(self):
        for activation in ("relu", "gelu", "tanh", "none"):
            mlp = MLP([3, 3, 3], activation=activation, rng=0)
            assert mlp(Tensor(np.ones((2, 3)))).shape == (2, 3)
        with pytest.raises(ValueError):
            MLP([3, 3, 3], activation="swish", rng=0)(Tensor(np.ones((2, 3))))

    def test_mlp_can_fit_linear_function(self):
        from repro.nn import Adam, mse_loss

        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 3))
        y = x @ np.array([[1.0], [-2.0], [0.5]])
        mlp = MLP([3, 16, 1], rng=0)
        optimizer = Adam(mlp.parameters(), lr=1e-2)
        for _ in range(200):
            loss = mse_loss(mlp(Tensor(x)), Tensor(y))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.05


class TestLinearMaps:
    def test_forward_is_x_times_weight_plus_bias(self):
        layer = Linear(3, 2, rng=1)
        layer.bias.data = np.array([0.5, -1.0])
        x = np.random.default_rng(4).normal(size=(5, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-12)

    def test_input_gradients(self):
        layer = Linear(4, 3, rng=2)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 4)), requires_grad=True)
        assert_gradients_close(lambda: (layer(x) * layer(x)).sum(), x)


class TestReLU:
    def test_zeroes_negatives_and_keeps_positives(self):
        out = ReLU()(Tensor(np.array([-2.0, -0.1, 0.0, 0.3, 4.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 0.3, 4.0])

    def test_gradient_passes_only_where_the_input_is_positive(self):
        x = Tensor(np.array([-1.0, 2.0, -3.0, 0.5]), requires_grad=True)
        ReLU()(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 1.0])


class TestBatchNormStatistics:
    def test_running_stats_follow_the_momentum(self):
        bn = BatchNorm1d(2, momentum=0.25)
        x = np.random.default_rng(6).normal(loc=3.0, scale=2.0, size=(40, 2))
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, 0.25 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.75 + 0.25 * x.var(axis=0), rtol=1e-12)

    def test_single_row_training_batch_uses_running_stats(self):
        bn = BatchNorm1d(3)
        out = bn(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]] / np.sqrt(1.0 + bn.eps))
        np.testing.assert_array_equal(bn.running_mean, np.zeros(3))

    def test_gamma_and_beta_scale_and_shift_the_output(self):
        bn = BatchNorm1d(2)
        bn.gamma.data = np.array([2.0, 0.5])
        bn.beta.data = np.array([1.0, -1.0])
        out = bn(Tensor(np.random.default_rng(8).normal(size=(64, 2)))).data
        np.testing.assert_allclose(out.mean(axis=0), [1.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), [2.0, 0.5], rtol=1e-3)


class TestMLPComposition:
    def test_linear_activation_composes_into_one_affine_map(self):
        mlp = MLP([3, 4, 2], activation="none", rng=3)
        first, second = mlp.layers
        x = np.random.default_rng(9).normal(size=(6, 3))
        weight = first.weight.data @ second.weight.data
        bias = first.bias.data @ second.weight.data + second.bias.data
        np.testing.assert_allclose(mlp(Tensor(x)).data, x @ weight + bias, rtol=1e-10)

    def test_no_activation_after_the_last_layer(self):
        mlp = MLP([2, 3], rng=4)
        mlp.layers[0].bias.data = np.array([-10.0, -10.0, -10.0])
        assert np.all(mlp(Tensor(np.zeros((1, 2)))).data < 0)

    def test_depth_matches_dims(self):
        mlp = MLP([5, 7, 7, 1], rng=5)
        assert [(layer.in_dim, layer.out_dim) for layer in mlp.layers] == [(5, 7), (7, 7), (7, 1)]
