"""Tests for the GatedGCN message-passing layer."""

import numpy as np
import pytest

from repro.models import GatedGCNLayer
from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import assert_gradients_close


def _graph_inputs(num_nodes=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(num_nodes, dim)), requires_grad=True)
    edge_index = np.array([[0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5]])
    edge_index = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    edge_attr = Tensor(rng.normal(size=(edge_index.shape[1], dim)), requires_grad=True)
    return x, edge_attr, edge_index


def _gather_then_linear(layer, x, edge_attr, edge_index):
    """The layer's update with the node linears applied to gathered edge rows."""
    src, dst = edge_index
    num_nodes = x.shape[0]
    x_dst = x.gather_rows(dst)
    x_src = x.gather_rows(src)
    edge_update = layer.A(x_dst) + layer.B(x_src) + layer.C(edge_attr)
    gates = edge_update.sigmoid()
    messages = gates * layer.V(x_src)
    aggregated = F.segment_sum(messages, dst, num_nodes)
    gate_sum = F.segment_sum(gates, dst, num_nodes) + 1e-6
    node_update = layer.U(x) + aggregated / gate_sum
    node_out = layer.drop(layer.bn_nodes(node_update).relu())
    edge_out = layer.bn_edges(edge_update).relu()
    if layer.residual:
        node_out = node_out + x
        edge_out = edge_out + edge_attr
    return node_out, edge_out


def _weighted_loss(node_out, edge_out, seed=3):
    """A scalar whose gradient reaches every output entry with its own weight."""
    rng = np.random.default_rng(seed)
    return ((node_out * Tensor(rng.normal(size=node_out.shape))).sum()
            + (edge_out * Tensor(rng.normal(size=edge_out.shape))).sum())


class TestGatedGCN:
    def test_output_shapes(self):
        layer = GatedGCNLayer(8, rng=0)
        x, e, idx = _graph_inputs()
        x_out, e_out = layer(x, e, idx)
        assert x_out.shape == x.shape
        assert e_out.shape == e.shape

    def test_empty_edge_list_is_identity(self):
        layer = GatedGCNLayer(8, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        e = Tensor(np.zeros((0, 8)))
        x_out, e_out = layer(x, e, np.zeros((2, 0), dtype=np.int64))
        np.testing.assert_allclose(x_out.data, x.data)
        assert e_out.shape == (0, 8)

    def test_gradients_reach_inputs_and_parameters(self):
        layer = GatedGCNLayer(8, rng=0)
        x, e, idx = _graph_inputs()
        out, _ = layer(x, e, idx)
        (out ** 2).sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)
        assert e.grad is not None
        assert layer.A.weight.grad is not None

    def test_isolated_node_updates_through_self_term(self):
        layer = GatedGCNLayer(4, rng=0)
        layer.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        edge_index = np.array([[0, 1], [1, 0]])
        e = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        out, _ = layer(x, e, edge_index)
        # Node 2 has no edges; with residual it should still be finite and changed by U x.
        assert np.all(np.isfinite(out.data[2]))

    def test_message_locality(self):
        """A node's update must not depend on non-neighbouring nodes."""
        layer = GatedGCNLayer(6, rng=0)
        layer.eval()
        rng = np.random.default_rng(0)
        x_data = rng.normal(size=(4, 6))
        edge_index = np.array([[0, 1], [1, 0]])  # only 0 <-> 1 connected
        e = Tensor(rng.normal(size=(2, 6)))
        out_a, _ = layer(Tensor(x_data), e, edge_index)
        modified = x_data.copy()
        modified[3] += 10.0  # node 3 is not a neighbour of node 0
        out_b, _ = layer(Tensor(modified), e, edge_index)
        np.testing.assert_allclose(out_a.data[0], out_b.data[0], atol=1e-10)

    def test_residual_can_be_disabled(self):
        with_res = GatedGCNLayer(4, residual=True, rng=0)
        without = GatedGCNLayer(4, residual=False, rng=0)
        without.load_state_dict(with_res.state_dict())
        with_res.eval()
        without.eval()
        x, e, idx = _graph_inputs(num_nodes=6, dim=4, seed=1)
        out_res, _ = with_res(x.detach(), e.detach(), idx)
        out_plain, _ = without(x.detach(), e.detach(), idx)
        np.testing.assert_allclose(out_res.data, out_plain.data + x.data, atol=1e-10)

    @pytest.mark.parametrize("train", [False, True])
    def test_linear_before_gather_matches_gather_then_linear(self, train):
        layer = GatedGCNLayer(8, rng=0)
        reference = GatedGCNLayer(8, rng=0)
        reference.load_state_dict(layer.state_dict())
        layer.train(train)
        reference.train(train)
        outputs, grads = [], []
        runs = ((layer, layer),
                (reference, lambda *args: _gather_then_linear(reference, *args)))
        for module, forward in runs:
            x, e, idx = _graph_inputs()
            node_out, edge_out = forward(x, e, idx)
            _weighted_loss(node_out, edge_out).backward()
            outputs.append((node_out.data, edge_out.data))
            grads.append([x.grad, e.grad] + [p.grad for p in module.parameters()])
        for got, want in zip(outputs[0], outputs[1]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(grads[0], grads[1]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["x", "A", "B", "C", "U", "V"])
    def test_finite_difference_gradients(self, name):
        # Eval mode: train-mode BatchNorm1d treats the batch statistics as
        # constants in backward, so only the eval-mode layer is the function
        # its gradients differentiate.
        layer = GatedGCNLayer(4, rng=0)
        layer.eval()
        x, e, idx = _graph_inputs(dim=4, seed=2)
        target = x if name == "x" else getattr(layer, name).weight

        def loss():
            return _weighted_loss(*layer(x, e, idx))

        assert_gradients_close(loss, target, atol=1e-6, rtol=1e-5)

    def test_state_dict_keys_are_unchanged(self):
        """Checkpoints address the layer's weights by these keys."""
        assert sorted(GatedGCNLayer(4, rng=0).state_dict()) == [
            "A.bias", "A.weight", "B.bias", "B.weight", "C.bias", "C.weight",
            "U.bias", "U.weight", "V.bias", "V.weight",
            "bn_edges.beta", "bn_edges.gamma", "bn_edges.running_mean",
            "bn_edges.running_var",
            "bn_nodes.beta", "bn_nodes.gamma", "bn_nodes.running_mean",
            "bn_nodes.running_var",
        ]
