"""Per-graph loop implementations of the attention blocks (parity oracles).

Until PR 4 the model core iterated over ``np.unique(batch)`` (and, for the
Performer, over heads) in Python for every forward pass.  The segment-ops
engine in :mod:`repro.nn.functional` replaced those loops with batched padded
softmax attention and flat segment reductions; the loop implementations are
kept here — mathematically identical, including the FAVOR+ stabilizer — as

* parity oracles for the vectorized modules (``tests/nn/test_attention.py``),
* the baseline of the train-throughput gate
  (``benchmarks/test_train_throughput.py``).

It also keeps the ``BatchNorm1d`` forward as four composed Tensor ops, each
allocating a fresh array (:func:`legacy_batchnorm_forward`), and the
``GatedGCNLayer`` forward as composed Tensor ops
(:func:`composed_gated_gcn_forward`).  The layers now run each as one or two
tape nodes with their own backward, and in place off the tape;
``tests/nn/test_inplace_forward.py`` pins the running statistics of
``Trainer.recalibrate_batchnorm`` byte-equal to the composed BN, and
``tests/nn/test_training_tape.py`` pins both nodes' outputs and gradients to
these expressions.

Mirrors ``tests/oracles/graph_legacy.py``, the pure-Python oracle of the CSR
kernel.
"""

from __future__ import annotations

import numpy as np

from repro.models.gated_gcn import GatedGCNLayer
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import BatchNorm1d
from repro.nn.performer import PerformerAttention
from repro.nn.tensor import Tensor, concat

__all__ = [
    "composed_gated_gcn_forward",
    "legacy_batchnorm_forward",
    "loop_multihead_attention",
    "loop_performer_attention",
    "LoopMultiHeadSelfAttention",
    "LoopPerformerAttention",
]


def loop_multihead_attention(module: MultiHeadSelfAttention, x: Tensor,
                             batch: np.ndarray) -> Tensor:
    """The pre-segment-engine forward of :class:`MultiHeadSelfAttention`."""
    batch = np.asarray(batch, dtype=np.int64)
    if x.shape[0] != batch.shape[0]:
        raise ValueError("x and batch must have the same number of rows")
    q = module.q_proj(x)
    k = module.k_proj(x)
    v = module.v_proj(x)

    outputs = []
    order = []
    scale = 1.0 / np.sqrt(module.head_dim)
    for graph_id in np.unique(batch):
        idx = np.nonzero(batch == graph_id)[0]
        order.append(idx)
        qg = q.gather_rows(idx)
        kg = k.gather_rows(idx)
        vg = v.gather_rows(idx)
        n = len(idx)
        # (heads, n, head_dim)
        qh = qg.reshape(n, module.num_heads, module.head_dim).transpose(1, 0, 2)
        kh = kg.reshape(n, module.num_heads, module.head_dim).transpose(1, 0, 2)
        vh = vg.reshape(n, module.num_heads, module.head_dim).transpose(1, 0, 2)
        scores = qh.matmul(kh.transpose(0, 2, 1)) * scale
        attn = scores.softmax(axis=-1)
        mixed = attn.matmul(vh)  # (heads, n, head_dim)
        merged = mixed.transpose(1, 0, 2).reshape(n, module.dim)
        outputs.append(merged)

    stacked = concat(outputs, axis=0)
    # Restore the original node order.
    permutation = np.concatenate(order)
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(len(permutation))
    restored = stacked.gather_rows(inverse)
    return module.drop(module.out_proj(restored))


def loop_performer_attention(module: PerformerAttention, x: Tensor,
                             batch: np.ndarray) -> Tensor:
    """The pre-segment-engine forward of :class:`PerformerAttention`.

    Includes the FAVOR+ max-subtraction stabilizer of the vectorized module:
    per-row maxima for queries, the per-graph/per-head maximum for keys.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if x.shape[0] != batch.shape[0]:
        raise ValueError("x and batch must have the same number of rows")
    q = module.q_proj(x)
    k = module.k_proj(x)
    v = module.v_proj(x)

    outputs = []
    order = []
    scale = 1.0 / np.sqrt(np.sqrt(module.head_dim))
    for graph_id in np.unique(batch):
        idx = np.nonzero(batch == graph_id)[0]
        order.append(idx)
        head_outputs = []
        for head in range(module.num_heads):
            cols = slice(head * module.head_dim, (head + 1) * module.head_dim)
            qh = q.gather_rows(idx)[:, cols] * scale
            kh = k.gather_rows(idx)[:, cols] * scale
            vh = v.gather_rows(idx)[:, cols]
            q_logits = module._logits(qh, head)
            k_logits = module._logits(kh, head)
            q_stab = q_logits.data.max(axis=-1, keepdims=True)
            k_stab = k_logits.data.max()
            q_feat = module._positive_features(q_logits, q_stab)
            k_feat = module._positive_features(k_logits, k_stab)
            kv = k_feat.transpose().matmul(vh)  # (m, head_dim)
            numerator = q_feat.matmul(kv)  # (n, head_dim)
            k_sum = k_feat.sum(axis=0)  # (m,)
            denominator = q_feat.matmul(k_sum.reshape(module.num_features, 1)) + 1e-8
            head_outputs.append(numerator / denominator)
        outputs.append(concat(head_outputs, axis=1))

    stacked = concat(outputs, axis=0)
    permutation = np.concatenate(order)
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(len(permutation))
    restored = stacked.gather_rows(inverse)
    return module.drop(module.out_proj(restored))


class LoopMultiHeadSelfAttention(MultiHeadSelfAttention):
    """Drop-in attention module running the per-graph Python loop."""

    def forward(self, x: Tensor, batch) -> Tensor:
        from repro.nn.functional import SegmentInfo, segment_info

        if isinstance(batch, SegmentInfo):
            batch = segment_info(batch).index
        return loop_multihead_attention(self, x, batch)


class LoopPerformerAttention(PerformerAttention):
    """Drop-in Performer module running the per-graph × per-head Python loop."""

    def forward(self, x: Tensor, batch) -> Tensor:
        from repro.nn.functional import SegmentInfo, segment_info

        if isinstance(batch, SegmentInfo):
            batch = segment_info(batch).index
        return loop_performer_attention(self, x, batch)


def legacy_batchnorm_forward(module: BatchNorm1d, x: Tensor) -> Tensor:
    """:class:`BatchNorm1d` as composed Tensor ops (a drop-in ``forward``).

    The statistics enter as constant tensors, so on the tape this is the
    backward the one-node layer must reproduce.
    """
    if x.ndim != 2:
        raise ValueError(f"BatchNorm1d expects a 2-D input, got shape {x.shape}")
    if module.training and x.shape[0] > 1:
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        module.running_mean = ((1 - module.momentum) * module.running_mean
                               + module.momentum * mean)
        module.running_var = ((1 - module.momentum) * module.running_var
                              + module.momentum * var)
    else:
        mean = module.running_mean
        var = module.running_var
    x_hat = (x - Tensor(mean)) * Tensor(1.0 / np.sqrt(var + module.eps))
    return x_hat * module.gamma + module.beta


def composed_gated_gcn_forward(layer: GatedGCNLayer, x: Tensor, edge_attr: Tensor,
                               edge_index: np.ndarray) -> tuple[Tensor, Tensor]:
    """:class:`GatedGCNLayer` as composed Tensor ops (a drop-in ``forward``)."""
    if edge_index.size == 0:
        return x, edge_attr
    src = edge_index[0]
    dst = edge_index[1]
    num_nodes = x.shape[0]

    edge_update = (layer.A(x).gather_rows(dst) + layer.B(x).gather_rows(src)
                   + layer.C(edge_attr))
    gates = edge_update.sigmoid()

    messages = gates * layer.V(x).gather_rows(src)
    aggregated = F.segment_sum(messages, dst, num_nodes)
    gate_sum = F.segment_sum(gates, dst, num_nodes) + 1e-6
    node_update = layer.U(x) + aggregated / gate_sum

    node_out = layer.bn_nodes(node_update).relu()
    edge_out = layer.bn_edges(edge_update).relu()
    node_out = layer.drop(node_out)
    if layer.residual:
        node_out = node_out + x
        edge_out = edge_out + edge_attr
    return node_out, edge_out
