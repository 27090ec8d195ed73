"""Performer (FAVOR+) linear attention.

The ablation in Tables III/VII compares the quadratic softmax Transformer with
the linear-complexity Performer.  The kernelised attention follows
Choromanski et al. (2021): queries and keys are mapped through positive random
features so that attention can be computed as two associative matrix products
without materialising the full attention matrix.

Both per-segment reductions run through the segment-ops engine's padded dense
view (:func:`repro.nn.functional.to_padded`), so all graphs and heads are
processed by one batched matmul and one axis sum with no Python loop; the
original per-graph × per-head loop survives as a parity oracle in the test
suite (``tests/oracles/nn_legacy.py``).

The positive feature map is stabilised as prescribed by Choromanski et al.:
the maximum of the projected logits is subtracted (per row for queries, per
segment for keys — a per-segment constant cancels in the attention ratio)
before exponentiation, so large-norm inputs no longer overflow to inf/NaN.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import get_rng
from . import functional as F
from . import kernels
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["PerformerAttention"]


class PerformerAttention(Module):
    """Linear-time self-attention via positive orthogonal random features."""

    def __init__(self, dim: int, num_heads: int = 4, num_features: int = 16,
                 dropout: float = 0.0, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} must be divisible by num_heads={num_heads}")
        rng = get_rng(rng)
        self.dim = int(dim)
        self.num_heads = int(num_heads)
        self.head_dim = self.dim // self.num_heads
        self.num_features = int(num_features)
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        # Fixed (non-learned) random projection matrix, one per head.
        # Registered as a buffer so checkpoints persist it: the kernel
        # approximation is defined by these features, and reloading a saved
        # model must not silently redraw them.
        self.register_buffer("projection", self._orthogonal_features(rng))

    def _orthogonal_features(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a block-orthogonal Gaussian projection (heads, head_dim, m)."""
        blocks = []
        for _ in range(self.num_heads):
            rows = []
            remaining = self.num_features
            while remaining > 0:
                gaussian = rng.normal(size=(self.head_dim, self.head_dim))
                q_mat, _ = np.linalg.qr(gaussian)
                take = min(remaining, self.head_dim)
                rows.append(q_mat[:, :take])
                remaining -= take
            block = np.concatenate(rows, axis=1)
            # Re-scale rows to match the norm distribution of iid Gaussians.
            norms = np.sqrt(rng.chisquare(self.head_dim, size=self.num_features))
            blocks.append(block * norms[None, :])
        return np.stack(blocks, axis=0)

    def _logits(self, x: Tensor, head: int | None = None) -> Tensor:
        """Softmax-kernel logits ``w^T x - ||x||^2 / 2``.

        ``x`` is ``(n, head_dim)`` for a single ``head``, or the batched
        ``(heads, n, head_dim)`` view with ``head=None`` — the one formula
        used by :meth:`forward`, :meth:`_feature_map` and the loop oracle of
        the test suite.
        """
        w = Tensor(self.projection if head is None else self.projection[head])
        projected = x.matmul(w)
        sq_norm = (x * x).sum(axis=-1, keepdims=True) * 0.5
        return projected - sq_norm

    def _positive_features(self, logits: Tensor, stabilizer) -> Tensor:
        """``exp(logits - stabilizer) / sqrt(m) + eps`` — the positive FAVOR+
        feature map; ``stabilizer`` is a detached max (see :meth:`forward`)."""
        scale = 1.0 / np.sqrt(self.num_features)
        return (logits - Tensor(stabilizer)).exp() * scale + 1e-6

    def _feature_map(self, x: Tensor, head: int) -> Tensor:
        """Positive softmax-kernel features phi(x) for one head.

        Stabilised with the standard FAVOR+ max-subtraction: the (detached)
        per-row maximum of the logits is removed before ``exp`` so that
        large-norm inputs cannot overflow.
        """
        logits = self._logits(x, head)
        stabilizer = logits.data.max(axis=-1, keepdims=True) if logits.data.size else 0.0
        return self._positive_features(logits, stabilizer)

    def forward(self, x: Tensor, batch) -> Tensor:
        """Apply linear attention to ``x`` segmented by ``batch``.

        ``batch`` may be an integer batch vector (any ordering / labelling) or
        a precomputed :class:`~repro.nn.functional.SegmentInfo`.
        """
        seg = F.segment_info(batch)
        if x.shape[0] != seg.num_rows:
            raise ValueError("x and batch must have the same number of rows")
        q = self.q_proj(x)
        k = self.k_proj(x)
        v = self.v_proj(x)
        if seg.num_rows == 0:
            return self.drop(self.out_proj(v))

        num_nodes = seg.num_rows
        heads, head_dim = self.num_heads, self.head_dim
        scale = 1.0 / np.sqrt(np.sqrt(head_dim))

        # (heads, N, head_dim) views; per-head column blocks match the legacy
        # per-head slicing of the projection output.
        qh = (q * scale).reshape(num_nodes, heads, head_dim).transpose(1, 0, 2)
        kh = (k * scale).reshape(num_nodes, heads, head_dim).transpose(1, 0, 2)

        q_logits = self._logits(qh)  # (heads, N, m)
        k_logits = self._logits(kh)

        # FAVOR+ stabilizers (detached): per row for queries; per segment and
        # head for keys, where the constant cancels in the attention ratio.
        q_stab = q_logits.data.max(axis=-1, keepdims=True)  # (heads, N, 1)
        k_row_max = k_logits.data.max(axis=-1).T  # (N, heads)
        # Contiguous segment ids from segment_info mean no segment is empty,
        # so the kernel's empty-segment zero-fill never fires here.
        k_seg_max = kernels.segment_max(k_row_max, seg.index, seg.num_segments)
        k_stab = k_seg_max[seg.index].T[:, :, None]  # (heads, N, 1)

        q_feat = self._positive_features(q_logits, q_stab)
        k_feat = self._positive_features(k_logits, k_stab)

        # Back to node-major layout for the segment reductions.
        q_feat = q_feat.transpose(1, 0, 2)  # (N, heads, m)
        k_feat = k_feat.transpose(1, 0, 2)
        vh = v.reshape(num_nodes, heads, head_dim)

        # Two per-segment reductions over the node axis, both through the
        # padded dense view (padded slots are zero rows, so they contribute
        # nothing to either reduction):
        #   kv[s]    = sum_{j in s} phi(k_j) v_j^T     (one batched matmul)
        #   k_sum[s] = sum_{j in s} phi(k_j)           (axis sum over slots)
        num_graphs, length = seg.num_segments, seg.max_count
        k_pad, _ = F.to_padded(k_feat, seg)  # (S, L, heads, m)
        v_pad, _ = F.to_padded(vh, seg)      # (S, L, heads, head_dim)
        kv = k_pad.transpose(0, 2, 3, 1).matmul(v_pad.transpose(0, 2, 1, 3))  # (S, heads, m, head_dim)
        k_sum = k_pad.sum(axis=1)            # (S, heads, m)

        q_pad, _ = F.to_padded(q_feat, seg)  # (S, L, heads, m)
        numerator_pad = q_pad.transpose(0, 2, 1, 3).matmul(kv)  # (S, heads, L, head_dim)
        numerator = F.from_padded(
            numerator_pad.transpose(0, 2, 1, 3).reshape(num_graphs, length, heads * head_dim), seg
        ).reshape(num_nodes, heads, head_dim)
        denominator = (q_feat * k_sum.gather_rows(seg.index)).sum(
            axis=-1, keepdims=True) + 1e-8                          # (N, heads, 1)
        out = (numerator / denominator).reshape(num_nodes, self.dim)
        return self.drop(self.out_proj(out))


# --------------------------------------------------------------------------- #
# Registry hook: see repro.nn.attention for the factory contract.
# --------------------------------------------------------------------------- #
from ..api.registries import ATTENTION  # noqa: E402  (registration epilogue)


@ATTENTION.register("performer")
def build_performer_attention(dim: int, num_heads: int = 4, dropout: float = 0.0,
                              num_features: int | None = None,
                              rng=None) -> PerformerAttention:
    """FAVOR+ linear attention with the GPS default feature count.

    ``num_features`` defaults to ``max(8, dim // 2)`` — the sizing the GPS
    layer has always used; pass an explicit value in an attention spec to
    override it.
    """
    if num_features is None:
        num_features = max(8, dim // 2)
    return PerformerAttention(dim, num_heads=num_heads, num_features=num_features,
                              dropout=dropout, rng=rng)
