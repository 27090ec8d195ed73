"""The training tape: BatchNorm and GatedGCN as single nodes, and who owns a gradient.

``BatchNorm1d`` records one tape node and ``GatedGCNLayer`` two (the edge
update, then the gated mean).  Their forward and backward are the steps of
the composed Tensor expressions kept in :mod:`tests.oracles.nn_legacy`, so:

* each matches its oracle byte for byte, output and every gradient, in
  float64 and under the float32 policy.  ``x`` feeds several GatedGCN
  linears, so its gradient is byte-equal only because the nodes' parents
  are ordered to sum those contributions in the composed order;
* a leaf (parameter or input) owns a private gradient array, so no two
  leaves share gradient memory, while a tape node keeps the first gradient
  it is handed without a copy.
"""

import copy
import itertools

import numpy as np
import pytest

from repro.models.gated_gcn import GatedGCNLayer
from repro.nn import BatchNorm1d, Tensor, no_grad, use_dtype
from tests.oracles.nn_legacy import composed_gated_gcn_forward, legacy_batchnorm_forward

DTYPES = (np.float64, np.float32)


def weighted_sum(*outputs, seed=3):
    """A scalar whose gradient reaches every output entry with its own weight."""
    rng = np.random.default_rng(seed)
    total = None
    for out in outputs:
        term = (out * Tensor(rng.normal(size=out.shape).astype(out.dtype))).sum()
        total = term if total is None else total + term
    return total


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# BatchNorm1d: one node, byte-equal to the composed expression
# --------------------------------------------------------------------------- #
def calibrated_bn(dim: int, dtype) -> BatchNorm1d:
    rng = np.random.default_rng(dim)
    bn = BatchNorm1d(dim)
    bn.gamma.data = rng.normal(size=dim)
    bn.beta.data = rng.normal(size=dim)
    bn.running_mean = rng.normal(size=dim)
    bn.running_var = rng.random(dim) + 0.5
    return bn.cast(dtype)


def bn_run(bn, forward, data):
    x = Tensor(data, requires_grad=True)
    out = forward(bn, x)
    weighted_sum(out).backward()
    return out, [x.grad, bn.gamma.grad, bn.beta.grad]


class TestBatchNormNode:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composed_oracle(self, dtype, training):
        bn = calibrated_bn(5, dtype).train(training)
        oracle = copy.deepcopy(bn)
        data = np.random.default_rng(4).normal(size=(11, 5)).astype(dtype)
        with use_dtype(dtype):
            out, grads = bn_run(bn, BatchNorm1d.__call__, data)
            want, want_grads = bn_run(oracle, legacy_batchnorm_forward, data)
        assert out._op == "batchnorm"  # one node on the tape
        assert out.dtype == np.dtype(dtype)
        assert_bytes_equal(out.data, want.data)
        for got, expected in zip(grads, want_grads):
            assert_bytes_equal(got, expected)
        assert_bytes_equal(bn.running_mean, oracle.running_mean)
        assert_bytes_equal(bn.running_var, oracle.running_var)

    def test_mixed_dtype_falls_back_to_the_composed_expression(self):
        bn = calibrated_bn(4, np.float64).eval()
        oracle = copy.deepcopy(bn)
        data = np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32)
        out, grads = bn_run(bn, BatchNorm1d.__call__, data)
        want, want_grads = bn_run(oracle, legacy_batchnorm_forward, data)
        assert out.dtype == np.float64
        assert_bytes_equal(out.data, want.data)
        for got, expected in zip(grads, want_grads):
            assert_bytes_equal(got, expected)
        assert grads[0].dtype == np.float32  # the input keeps its own dtype

    def test_frozen_affine_gets_no_gradient(self):
        bn = calibrated_bn(3, np.float64).eval()
        bn.gamma.requires_grad = False
        bn.beta.requires_grad = False
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        weighted_sum(bn(x)).backward()
        assert bn.gamma.grad is None and bn.beta.grad is None
        assert x.grad is not None


# --------------------------------------------------------------------------- #
# GatedGCN: two nodes against the composed expression
# --------------------------------------------------------------------------- #
def graph_inputs(num_nodes=7, dim=8, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    # Node 6 has out-edges only (no in-edges), node 5 is reached by two.
    edge_index = np.array([[0, 1, 2, 3, 4, 0, 6, 6], [1, 2, 3, 4, 5, 5, 0, 3]])
    edge_index = np.concatenate([edge_index[:, :6], edge_index[::-1, :6],
                                 edge_index[:, 6:]], axis=1)
    x = rng.normal(size=(num_nodes, dim)).astype(dtype)
    edge_attr = rng.normal(size=(edge_index.shape[1], dim)).astype(dtype)
    return x, edge_attr, edge_index


def gated_layer(dim=8, dtype=np.float64):
    layer = GatedGCNLayer(dim, rng=0)
    rng = np.random.default_rng(1)
    for param in layer.parameters():
        param.data = param.data + 0.1 * rng.normal(size=param.shape)
    return layer.cast(dtype)


def gated_run(layer, forward, x_data, e_data, edge_index, edge_loss=True):
    x = Tensor(x_data, requires_grad=True)
    e = Tensor(e_data, requires_grad=True)
    node_out, edge_out = forward(layer, x, e, edge_index)
    weighted_sum(*((node_out, edge_out) if edge_loss else (node_out,))).backward()
    grads = {"x": x.grad, "edge_attr": e.grad}
    for name in "ABCUV":
        linear = getattr(layer, name)
        grads[f"{name}.weight"] = linear.weight.grad
        grads[f"{name}.bias"] = linear.bias.grad
    return node_out, edge_out, grads


class TestGatedGCNNodes:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [False, True])
    # Without an edge loss (the model's last layer) backward reaches the
    # gated mean before the edge update, which makes the parents' order
    # decide how ``x``'s gradient sums.
    @pytest.mark.parametrize("edge_loss", [True, False])
    def test_matches_composed_oracle(self, dtype, training, edge_loss, monkeypatch):
        layer = gated_layer(dtype=dtype).train(training)
        oracle = copy.deepcopy(layer)
        inputs = graph_inputs(dtype=dtype)
        with use_dtype(dtype):
            node_out, edge_out, grads = gated_run(layer, GatedGCNLayer.__call__, *inputs,
                                                  edge_loss=edge_loss)
            with monkeypatch.context() as patch:
                patch.setattr(BatchNorm1d, "forward", legacy_batchnorm_forward)
                want_node, want_edge, want_grads = gated_run(
                    oracle, composed_gated_gcn_forward, *inputs, edge_loss=edge_loss)
        assert node_out.dtype == np.dtype(dtype)
        assert_bytes_equal(node_out.data, want_node.data)
        assert_bytes_equal(edge_out.data, want_edge.data)
        assert set(grads) == set(want_grads)
        for name, got in grads.items():
            assert got is not None and np.any(got != 0), name
            assert_bytes_equal(got, want_grads[name])

    def test_node_without_in_edges_takes_only_its_self_term(self):
        layer = gated_layer().eval()
        x, e, edge_index = graph_inputs()
        assert 6 not in edge_index[1] and 6 in edge_index[0]
        with no_grad():
            node_out, _ = layer(Tensor(x), Tensor(e), edge_index)
            # No gated message reaches node 6: its update is U x alone.
            alone = layer.bn_nodes(layer.U(Tensor(x))).relu().data + x
        assert_bytes_equal(node_out.data[6], alone[6])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_off_the_tape_matches_the_oracle(self, dtype):
        layer = gated_layer(dtype=dtype).eval()
        x, e, edge_index = graph_inputs(dtype=dtype)
        with use_dtype(dtype), no_grad():
            got = layer(Tensor(x), Tensor(e), edge_index)
            want = composed_gated_gcn_forward(layer, Tensor(x), Tensor(e), edge_index)
        for out, expected in zip(got, want):
            assert out.dtype == np.dtype(dtype)
            assert_bytes_equal(out.data, expected.data)

    def test_edgeless_early_return(self):
        layer = gated_layer()
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)), requires_grad=True)
        e = Tensor(np.zeros((0, 8)), requires_grad=True)
        node_out, edge_out = layer(x, e, np.zeros((2, 0), dtype=np.int64))
        assert node_out is x and edge_out is e
        (node_out * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((4, 8), 2.0))
        assert all(p.grad is None for p in layer.parameters())

    def test_gradients_only_where_required(self):
        layer = gated_layer()
        layer.A.weight.requires_grad = False
        layer.V.weight.requires_grad = False
        x, e, edge_index = graph_inputs()
        node_out, edge_out = layer(Tensor(x), Tensor(e, requires_grad=True), edge_index)
        weighted_sum(node_out, edge_out).backward()
        assert layer.A.weight.grad is None and layer.V.weight.grad is None
        assert layer.B.weight.grad is not None and layer.A.bias.grad is not None


# --------------------------------------------------------------------------- #
# Gradient ownership
# --------------------------------------------------------------------------- #
def assert_private_gradients(leaves):
    grads = [leaf.grad for leaf in leaves]
    assert all(grad is not None for grad in grads)
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)
    before = [grad.copy() for grad in grads]
    grads[0] *= 3.0
    for grad, saved in zip(grads[1:], before[1:]):
        assert_bytes_equal(grad, saved)


class TestOwnership:
    def test_sum_of_two_leaves(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).backward(np.full((2, 3), 0.5))
        assert_private_gradients([a, b])
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 0.5))

    def test_root_gradient_is_copied(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = a * 2.0
        seed = np.ones(3)
        out.backward(seed)
        assert not np.shares_memory(out.grad, seed)

    def test_tape_node_keeps_its_first_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        hidden = a * 2.0
        flat = hidden.reshape(6)
        flat.backward(np.arange(6.0))
        # reshape hands back a view of its gradient; the node keeps it as is.
        assert np.shares_memory(hidden.grad, flat.grad)
        assert not np.shares_memory(a.grad, hidden.grad)

    def test_dtype_mismatch_is_copied(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        hidden = a * 1.0
        hidden._accumulate(np.ones(3))
        assert hidden.grad.dtype == np.float32

    def test_gated_gcn_parameters_and_inputs(self):
        layer = gated_layer().train()
        x, e, edge_index = graph_inputs()
        x, e = Tensor(x, requires_grad=True), Tensor(e, requires_grad=True)
        weighted_sum(*layer(x, e, edge_index)).backward()
        assert_private_gradients([x, e] + list(layer.parameters()))
