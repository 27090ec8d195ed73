"""The in-place forward off the tape.

Under ``no_grad`` (or with no operand requiring grad) ``F.linear``,
``BatchNorm1d``, the masked attention softmax and ``Tensor.softmax`` run
their later steps in the buffer they allocated.  These tests pin the three
promises of that path:

* it is byte-equal to the tape path, end to end through ``CircuitGPS``;
* it never writes into an input array;
* BatchNorm recalibration (a train-mode forward under ``no_grad``) leaves
  the same running statistics as the pre-in-place expression.
"""

import copy

import numpy as np
import pytest

from repro.core import Trainer
from repro.core.datasets import build_link_samples
from repro.graph import Subgraph, collate, compute_pe, default_link_pipeline
from repro.models import CircuitGPS
from repro.models.circuitgps import _directed
from repro.models.gated_gcn import GatedGCNLayer
from repro.models.gps_layer import GPSLayer
from repro.nn import (BatchNorm1d, Linear, MultiHeadSelfAttention, Tensor, no_grad,
                      use_dtype)
from repro.nn import functional as F
from tests.oracles.nn_legacy import legacy_batchnorm_forward

TASKS = ("link", "edge_regression", "node_regression")
DTYPES = (np.float64, np.float32)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def hub_subgraph(num_nodes: int, rng) -> Subgraph:
    """A chain with random chords: one large subgraph among small ones."""
    chain = np.stack([np.arange(num_nodes - 1), np.arange(1, num_nodes)])
    chords = rng.integers(0, num_nodes, size=(2, num_nodes // 2))
    chords = chords[:, chords[0] != chords[1]]
    edges = np.concatenate([chain, chords], axis=1)
    subgraph = Subgraph(node_ids=np.arange(num_nodes),
                        node_types=rng.integers(0, 3, size=num_nodes),
                        edge_index=edges, edge_types=rng.integers(0, 2, size=edges.shape[1]),
                        anchors=(0, num_nodes - 1), node_stats=rng.random((num_nodes, 13)))
    compute_pe(subgraph, "dspd")
    return subgraph


def edgeless_subgraph(num_nodes: int) -> Subgraph:
    """``num_nodes`` isolated nodes; one node is a single-anchor sample."""
    subgraph = Subgraph(node_ids=np.arange(num_nodes), node_types=np.zeros(num_nodes, dtype=int),
                        edge_index=np.zeros((2, 0), dtype=np.int64),
                        edge_types=np.zeros(0, dtype=np.int64),
                        anchors=(0, num_nodes - 1), node_stats=np.ones((num_nodes, 13)))
    compute_pe(subgraph, "dspd")
    return subgraph


@pytest.fixture(scope="module")
def samples(small_design):
    samples = default_link_pipeline(max_links=40, max_nodes_per_hop=15).run(
        small_design.graph, rng=0)
    for sample in samples:
        compute_pe(sample, "dspd")
    return samples


@pytest.fixture(scope="module")
def bucketed_batch(samples):
    """Distinct subgraphs of mixed size, with an edge-less and a one-node one."""
    rng = np.random.default_rng(5)
    picked = (samples[:30] + [hub_subgraph(70, rng), edgeless_subgraph(3),
                              edgeless_subgraph(1)] + samples[:4])
    return collate(picked)


def make_model(**overrides):
    """A small CircuitGPS whose biases, BN affines and BN running statistics
    are all non-trivial, so a wrong bias or BN step changes the output."""
    options = dict(dim=16, num_layers=2, pe_kind="dspd", pe_hidden=4,
                   attention="transformer", dropout=0.2, rng=0)
    options.update(overrides)
    model = CircuitGPS(**options)
    rng = np.random.default_rng(7)
    for param in model.parameters():
        param.data = param.data + 0.1 * rng.normal(size=param.shape)
    for bn in model.modules():
        if isinstance(bn, BatchNorm1d):
            bn.running_mean = 0.1 * rng.normal(size=bn.dim)
            bn.running_var = rng.random(bn.dim) + 0.5
    return model


# --------------------------------------------------------------------------- #
# Tape path == in-place path, end to end
# --------------------------------------------------------------------------- #
def assert_tape_equals_no_grad(model, batch, dtype):
    if dtype is np.float32:
        model = copy.deepcopy(model).cast(np.float32)
    model.eval()
    with use_dtype(dtype):
        for task in TASKS:
            taped = model(batch, task=task)
            assert taped.requires_grad  # the tape path really ran
            with no_grad():
                fast = model(batch, task=task)
            assert not fast.requires_grad
            assert fast.dtype == taped.dtype == np.dtype(dtype)
            assert fast.data.tobytes() == taped.data.tobytes(), task


class TestTapeParity:
    def test_batch_really_splits_into_buckets(self, bucketed_batch):
        distinct = bucketed_batch.distinct()
        assert distinct.batch is not bucketed_batch  # the trunk runs on the distinct rows
        assert len(distinct.batch.segments().buckets.masks) > 1

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bucketed_batch(self, bucketed_batch, dtype):
        assert_tape_equals_no_grad(make_model(), bucketed_batch, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_edgeless_and_single_node_only(self, dtype):
        batch = collate([edgeless_subgraph(3), edgeless_subgraph(1), edgeless_subgraph(2)])
        assert batch.edge_index.size == 0  # GatedGCN takes its early return
        assert_tape_equals_no_grad(make_model(), batch, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_rung_batch(self, samples, dtype):
        """Subgraphs whose sizes share one padded length form one bucket."""
        rungs = F.padded_length([s.num_nodes for s in samples])
        common = np.bincount(rungs).argmax()
        batch = collate([s for s, rung in zip(samples, rungs) if rung == common][:6])
        assert batch.num_graphs > 1
        assert len(batch.segments().buckets.masks) == 1
        assert_tape_equals_no_grad(make_model(num_layers=1), batch, dtype)


# --------------------------------------------------------------------------- #
# Single ops: byte-equal to the tape path, mixed dtypes fall back
# --------------------------------------------------------------------------- #
class TestOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype):
        data = np.random.default_rng(0).normal(size=(3, 4, 7)).astype(dtype)
        taped = Tensor(data, requires_grad=True).softmax(axis=1)
        with no_grad():
            fast = Tensor(data, requires_grad=True).softmax(axis=1)
        assert fast.data.tobytes() == taped.data.tobytes()

    def test_linear_mixed_dtype_bias_promotes_like_the_tape(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        weight = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        bias = Tensor(rng.normal(size=4))
        with no_grad():
            out = F.linear(x, weight, bias)
        want = x.data @ weight.data + bias.data
        assert out.dtype == np.float64
        assert out.data.tobytes() == want.tobytes()

    def test_batchnorm_mixed_dtype_promotes_like_the_tape(self):
        bn = _calibrated_bn(4).eval()
        x = Tensor(np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32))
        bn.running_mean = bn.running_mean.astype(np.float32)
        bn.running_var = bn.running_var.astype(np.float32)
        with no_grad():
            got = bn(x)
            want = legacy_batchnorm_forward(bn, x)
        assert got.dtype == want.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [False, True])
    def test_batchnorm_matches_legacy(self, dtype, training):
        bn = _calibrated_bn(5).cast(dtype)
        legacy = copy.deepcopy(bn)
        bn.train(training)
        legacy.train(training)
        x = Tensor(np.random.default_rng(3).normal(size=(9, 5)).astype(dtype))
        with use_dtype(dtype), no_grad():
            got = bn(x)
            want = legacy_batchnorm_forward(legacy, x)
        assert got.data.tobytes() == want.data.tobytes()
        assert bn.running_mean.tobytes() == legacy.running_mean.tobytes()
        assert bn.running_var.tobytes() == legacy.running_var.tobytes()


def _calibrated_bn(dim: int) -> BatchNorm1d:
    """A BatchNorm with non-trivial affine parameters and running statistics."""
    rng = np.random.default_rng(dim)
    bn = BatchNorm1d(dim)
    bn.gamma.data = rng.normal(size=dim)
    bn.beta.data = rng.normal(size=dim)
    bn.running_mean = rng.normal(size=dim)
    bn.running_var = rng.random(dim) + 0.5
    return bn


# --------------------------------------------------------------------------- #
# Aliasing guard: no input array changes under no_grad
# --------------------------------------------------------------------------- #
def _snapshot(arrays):
    return [np.array(a, copy=True) for a in arrays]


def assert_inputs_unchanged(call, inputs, module=None):
    """``call()`` under ``no_grad`` leaves ``inputs`` and ``module``'s
    parameters byte-for-byte as they were."""
    params = [] if module is None else [p.data for p in module.parameters()]
    arrays = list(inputs) + params
    before = _snapshot(arrays)
    with no_grad():
        call()
    for array, saved in zip(arrays, before):
        assert array.dtype == saved.dtype and array.tobytes() == saved.tobytes()


@pytest.fixture(scope="module")
def layer_inputs(bucketed_batch):
    """Trunk-shaped inputs: node rows, directed edges and their features."""
    rng = np.random.default_rng(9)
    dim = 16
    edge_index, _ = _directed(bucketed_batch.edge_index, bucketed_batch.edge_types)
    x = Tensor(rng.normal(size=(bucketed_batch.num_nodes, dim)))
    edge_attr = Tensor(rng.normal(size=(edge_index.shape[1], dim)))
    return x, edge_attr, edge_index, bucketed_batch.segments()


class TestInputsUnchanged:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear(self, layer_inputs, dtype):
        x = Tensor(layer_inputs[0].data.astype(dtype))
        layer = Linear(16, 8, rng=0).cast(dtype)
        layer.bias.data = layer.bias.data + 0.5
        assert_inputs_unchanged(lambda: layer(x), [x.data], layer)

    @pytest.mark.parametrize("training", [False, True])
    def test_batchnorm(self, layer_inputs, training):
        x = layer_inputs[0]
        bn = _calibrated_bn(16).train(training)
        stats = [bn.running_mean, bn.running_var]
        assert_inputs_unchanged(lambda: bn(x), [x.data] + stats, bn)

    def test_softmax(self, layer_inputs):
        x = layer_inputs[0]
        assert_inputs_unchanged(lambda: x.softmax(axis=-1), [x.data])

    def test_attention(self, layer_inputs):
        x, _, _, seg = layer_inputs
        assert len(seg.buckets.masks) > 1
        attention = MultiHeadSelfAttention(16, num_heads=4, rng=0).eval()
        assert_inputs_unchanged(lambda: attention(x, seg),
                                [x.data, seg.index, seg.flat, seg.mask], attention)

    def test_gated_gcn(self, layer_inputs):
        x, edge_attr, edge_index, _ = layer_inputs
        layer = GatedGCNLayer(16, rng=0).eval()
        assert_inputs_unchanged(lambda: layer(x, edge_attr, edge_index),
                                [x.data, edge_attr.data, edge_index], layer)

    def test_gated_gcn_edgeless_early_return(self, layer_inputs):
        x = layer_inputs[0]
        edge_attr = Tensor(np.zeros((0, 16)))
        edge_index = np.zeros((2, 0), dtype=np.int64)
        layer = GatedGCNLayer(16, rng=0).eval()
        with no_grad():
            node_out, _ = layer(x, edge_attr, edge_index)
        assert node_out is x  # the early return hands the input back
        assert_inputs_unchanged(lambda: layer(x, edge_attr, edge_index),
                                [x.data, edge_attr.data, edge_index], layer)

    @pytest.mark.parametrize("edgeless", [False, True])
    def test_gps_layer(self, layer_inputs, edgeless):
        x, edge_attr, edge_index, seg = layer_inputs
        if edgeless:
            # The GatedGCN branch returns x itself; the layer must not
            # write through it.
            edge_attr = Tensor(np.zeros((0, 16)))
            edge_index = np.zeros((2, 0), dtype=np.int64)
        layer = GPSLayer(16, rng=0).eval()
        assert_inputs_unchanged(lambda: layer(x, edge_attr, edge_index, seg),
                                [x.data, edge_attr.data, edge_index, seg.index], layer)


# --------------------------------------------------------------------------- #
# Recalibration oracle
# --------------------------------------------------------------------------- #
def test_recalibrate_batchnorm_matches_legacy_expression(small_design, tiny_config,
                                                         monkeypatch):
    samples = build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)
    model = make_model(dropout=0.0)
    legacy = copy.deepcopy(model)
    Trainer(model, task="link", config=tiny_config.train).recalibrate_batchnorm(samples)
    with monkeypatch.context() as patch:
        patch.setattr(BatchNorm1d, "forward", legacy_batchnorm_forward)
        Trainer(legacy, task="link", config=tiny_config.train).recalibrate_batchnorm(samples)
    norms = [m for m in model.modules() if isinstance(m, BatchNorm1d)]
    legacy_norms = [m for m in legacy.modules() if isinstance(m, BatchNorm1d)]
    assert len(norms) == len(legacy_norms) > 0
    for bn, old in zip(norms, legacy_norms):
        assert bn.running_mean.tobytes() == old.running_mean.tobytes()
        assert bn.running_var.tobytes() == old.running_var.tobytes()
