"""Global self-attention over batched (sub)graphs.

The GPS layer's ``GlobalAttn`` block is a standard multi-head softmax
self-attention applied to the node set of each graph.  Because batches are
disjoint unions of enclosing subgraphs, attention must not leak across graph
boundaries.  Instead of looping over graphs, graphs are packed into dense
padded ``(graphs, heads, n, n)`` score tensors and masked with a large
negative bias, so one batched softmax handles many graphs at once.

Padding every graph to the batch's largest one would let a single hub-net
subgraph set the cost for all of them, and would make a graph's result
depend on its batch mates: the score GEMM rounds each element according to
the padded length.  So every graph is padded to a length that depends on
its own node count alone, a ladder of powers of two with a three-quarter
step (:func:`repro.nn.functional.padded_length`), and graphs of one padded
length form a bucket (:class:`repro.nn.functional.BucketLayout`, computed
once per collated batch and cached on its
:class:`~repro.nn.functional.SegmentInfo`).  Each bucket runs the masked
softmax on its own; one scatter packs all buckets and one gather puts the
rows back in their original order.  A graph's output rows are therefore
bit-identical whatever batch it is forwarded in.  The original per-graph
loop survives as a parity oracle in the test suite
(``tests/oracles/nn_legacy.py``).
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import get_rng
from . import functional as F
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor, concat, exp_normalise, on_tape

__all__ = ["MultiHeadSelfAttention"]

# Finite stand-in for -inf: large enough that exp() underflows to exactly 0
# after the softmax max-shift, small enough to keep padded rows NaN-free.
MASK_BIAS = -1e30


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention within graph segments.

    Parameters
    ----------
    dim:
        Model (input and output) dimension.
    num_heads:
        Number of attention heads; ``dim`` must be divisible by it.
    dropout:
        Dropout rate applied to the output projection.
    """

    def __init__(self, dim: int, num_heads: int = 4, dropout: float = 0.0, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} must be divisible by num_heads={num_heads}")
        rng = get_rng(rng)
        self.dim = int(dim)
        self.num_heads = int(num_heads)
        self.head_dim = self.dim // self.num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, batch) -> Tensor:
        """Apply attention to node features ``x`` segmented by ``batch``.

        Parameters
        ----------
        x:
            Node features of shape ``(num_nodes, dim)``.
        batch:
            Integer array of shape ``(num_nodes,)`` assigning each node to a
            graph in the disjoint-union batch (any ordering and labelling), or
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

        layout = seg.buckets
        scale = 1.0 / np.sqrt(self.head_dim)
        # One scatter packs every bucket's padded block onto the joint slot
        # axis.  The score scale is folded into q before packing: one
        # (N, dim) multiply instead of one per (graphs, heads, n, n) block.
        packed = [t.scatter_add(layout.flat, layout.num_slots, unique=True)
                  for t in (q * scale, k, v)]
        mixed = []
        for mask, start in zip(layout.masks, layout.offsets):
            stop = start + mask.size
            # A single bucket spans the whole slot axis: no slice needed.
            parts = packed if mask.size == layout.num_slots else [t[start:stop] for t in packed]
            mixed.append(self._attend(*parts, mask))
        merged = mixed[0] if len(mixed) == 1 else concat(mixed, axis=0)
        restored = merged.gather_rows(layout.flat, unique=True)
        return self.drop(self.out_proj(restored))

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
        """Masked softmax attention over one bucket's padded slot rows.

        ``q``/``k``/``v`` hold ``mask.size`` rows laid out as ``mask.shape``
        (graphs, padded length); the result has the same layout.
        """
        num_graphs, length = mask.shape
        heads, head_dim = self.num_heads, self.head_dim

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(num_graphs, length, heads, head_dim).transpose(0, 2, 1, 3)

        scores = split_heads(q).matmul(split_heads(k).transpose(0, 1, 3, 2))
        # Mask padded *key* slots everywhere; padded query rows degrade to a
        # finite uniform attention and are never gathered back.
        scalar = scores.dtype.type
        bias = np.where(mask, scalar(0.0), scalar(MASK_BIAS))[:, None, None, :]
        if on_tape(scores):
            attn = (scores + Tensor(bias)).softmax(axis=-1)
        else:
            # Off the tape the whole masked softmax runs in the fresh scores.
            logits = scores.data
            logits += bias
            logits -= logits.max(axis=-1, keepdims=True)
            attn = Tensor(exp_normalise(logits, -1))
        mixed = attn.matmul(split_heads(v))  # (num_graphs, heads, length, head_dim)
        return mixed.transpose(0, 2, 1, 3).reshape(num_graphs * length, self.dim)


# --------------------------------------------------------------------------- #
# Registry: the GPS layer builds its global-attention block through
# repro.api.ATTENTION, so new kernels plug in from one file.  A registered
# factory takes (dim, num_heads=, dropout=, rng=) and returns a Module whose
# forward is (x, segments) -> x.
# --------------------------------------------------------------------------- #
from ..api.registries import ATTENTION  # noqa: E402  (registration epilogue)


@ATTENTION.register("transformer")
def build_transformer_attention(dim: int, num_heads: int = 4, dropout: float = 0.0,
                                rng=None) -> MultiHeadSelfAttention:
    """The quadratic softmax attention kernel (the paper's default)."""
    return MultiHeadSelfAttention(dim, num_heads=num_heads, dropout=dropout, rng=rng)
