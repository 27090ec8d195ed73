"""Functional interface over :class:`repro.nn.tensor.Tensor` operations.

These free functions mirror a small subset of ``torch.nn.functional`` and are
used throughout the model code so the layer implementations read like their
PyTorch counterparts in the original GraphGPS / CircuitGPS code base.

The segment-ops engine lives here: batched graphs are disjoint unions whose
``batch`` vector assigns each node to a segment, and every per-graph reduction
in the model core (attention normalisation, message aggregation, readout
pooling) is expressed through :func:`segment_sum` / :func:`segment_mean` /
:func:`segment_max` / :func:`segment_softmax` over the flat node axis, or
through the padded dense view built by :func:`to_padded` / :func:`from_padded`.
All of them are differentiable and loop-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .tensor import Tensor, concat, on_tape, stable_sigmoid, stack

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "stable_sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "linear",
    "embedding",
    "concat",
    "stack",
    "scatter_add",
    "scatter_mean",
    "SegmentInfo",
    "segment_info",
    "BucketLayout",
    "bucket_layout",
    "padded_length",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "to_padded",
    "from_padded",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    return x.gelu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` with ``weight`` of shape (in, out).

    Off the tape the bias is added into the fresh matmul result.
    """
    out = x.matmul(weight)
    if bias is None:
        return out
    if on_tape(out, bias) or out.dtype != bias.dtype:
        return out + bias
    out.data += bias.data
    return out


def embedding(table: Tensor, indices) -> Tensor:
    """Differentiable row lookup into an embedding table."""
    return table.gather_rows(indices)


@dataclass(frozen=True)
class SegmentInfo:
    """Precomputed segment layout of a batch vector.

    Computed once per collated batch (see
    :meth:`repro.graph.batch.SubgraphBatch.segments`) and threaded through the
    model core so attention layers and pooling never re-derive the layout.
    Segment ids are relabelled to a contiguous ``0..num_segments-1`` range, so
    arbitrary (non-contiguous, interleaved) batch vectors are supported.
    """

    index: np.ndarray        # (N,) contiguous segment id per row, original order
    num_segments: int
    counts: np.ndarray       # (S,) rows per segment
    slots: np.ndarray        # (N,) position of each row within its segment
    max_count: int           # L = counts.max() (0 for an empty batch)
    flat: np.ndarray         # (N,) row index into the (S * L) padded row axis
    mask: np.ndarray         # (S, L) bool, True where a padded slot holds a row

    @property
    def num_rows(self) -> int:
        """Number of flat rows covered by this segmentation."""
        return int(self.index.shape[0])

    @cached_property
    def buckets(self) -> "BucketLayout":
        """Size-class :func:`bucket_layout` of this batch, computed once."""
        return bucket_layout(self)


def segment_info(index) -> SegmentInfo:
    """Build (or pass through) the :class:`SegmentInfo` for a batch vector."""
    if isinstance(index, SegmentInfo):
        return index
    raw = np.asarray(index, dtype=np.int64)
    if raw.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return SegmentInfo(index=empty, num_segments=0, counts=np.zeros(0, dtype=np.int64),
                           slots=empty, max_count=0, flat=empty,
                           mask=np.zeros((0, 0), dtype=bool))
    _, ids, counts = np.unique(raw, return_inverse=True, return_counts=True)
    ids = ids.astype(np.int64).reshape(-1)
    num_segments = int(counts.shape[0])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    order = np.argsort(ids, kind="stable")
    slots = np.empty_like(ids)
    slots[order] = np.arange(ids.shape[0], dtype=np.int64) - np.repeat(starts, counts)
    max_count = int(counts.max())
    flat = ids * max_count + slots
    mask = np.zeros((num_segments, max_count), dtype=bool)
    mask.reshape(-1)[flat] = True
    return SegmentInfo(index=ids, num_segments=num_segments,
                       counts=counts.astype(np.int64), slots=slots,
                       max_count=max_count, flat=flat, mask=mask)


def padded_length(counts) -> np.ndarray:
    """The padded attention length of segments of ``counts`` (>= 1) rows.

    The smallest rung at or above each count on a fixed ladder of powers of
    two with a three-quarter step in between: 1, 2, 3, 4, 6, 8, 12, 16, 24,
    32, 48, ...  It depends on the count alone, never on the other segments
    of a batch, so a segment is padded the same way wherever it is batched.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # ceil(log2(count)) is exact because log2 of a power of two is exact.
    power = np.left_shift(1, np.ceil(np.log2(counts)).astype(np.int64))
    step = 3 * power // 4
    return np.where(counts <= step, step, power)


@dataclass(frozen=True)
class BucketLayout:
    """Size-class bucketing of a :class:`SegmentInfo` for padded attention.

    Every segment is padded to :func:`padded_length` of its own row count,
    and segments of one padded length form a bucket.  The buckets' padded
    blocks lie end to end on one slot axis, in ascending length: bucket
    ``b``'s ``(S_b, L_b)`` block ``masks[b]`` marks the slots holding a
    row, and it owns slots ``offsets[b]`` to ``offsets[b] + S_b * L_b``,
    laid out as ``S_b`` segments of ``L_b`` slots each, in segment order.  ``flat`` places every row, in original order, on
    that axis, so one unique-index scatter packs all buckets and one gather
    with the same indices restores the original row order.

    Because a segment's padded length and mask do not depend on the rest of
    the batch, neither does the attention computed over it: a subgraph's
    output rows are bit-identical whatever batch it is forwarded in.
    """

    masks: tuple[np.ndarray, ...]      # (S_b, L_b) bool, True where a slot holds a row
    offsets: tuple[int, ...]           # first slot of each bucket's block
    flat: np.ndarray                   # (N,) slot of each row on the joint axis
    num_slots: int                     # sum of S_b * L_b


def bucket_layout(index) -> BucketLayout:
    """Group a batch's segments by their :func:`padded_length`.

    Attention reads it through :attr:`SegmentInfo.buckets`, which caches it
    per layout, so it is computed once per collated batch.
    """
    seg = segment_info(index)
    lengths = padded_length(seg.counts)
    classes, bucket_of, members = np.unique(lengths, return_inverse=True, return_counts=True)
    bucket_of = bucket_of.reshape(-1)
    # Segments grouped by bucket, in segment order within each bucket.
    order = np.argsort(bucket_of, kind="stable")
    first = np.cumsum(members) - members
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0]) - np.repeat(first, members)
    sizes = members * classes
    offsets = np.cumsum(sizes) - sizes
    flat = (offsets[bucket_of] + rank * lengths)[seg.index] + seg.slots
    masks = tuple(np.arange(length) < seg.counts[order[start:start + count], None]
                  for length, start, count in zip(classes.tolist(), first.tolist(),
                                                  members.tolist()))
    return BucketLayout(masks=masks, offsets=tuple(offsets.tolist()), flat=flat,
                        num_slots=int(sizes.sum()))


def _segment_args(index, num_segments: int | None) -> tuple[np.ndarray, int]:
    """Normalise ``(index, num_segments)``; ``index`` may be a SegmentInfo."""
    if isinstance(index, SegmentInfo):
        return index.index, index.num_segments
    idx = np.asarray(index, dtype=np.int64)
    if num_segments is None:
        num_segments = int(idx.max()) + 1 if idx.size else 0
    return idx, int(num_segments)


def scatter_add(src: Tensor, index, num_rows: int) -> Tensor:
    """Scatter-add rows of ``src`` into ``num_rows`` buckets."""
    return src.scatter_add(index, num_rows)


def scatter_mean(src: Tensor, index, num_rows: int) -> Tensor:
    """Scatter-mean rows of ``src`` into ``num_rows`` buckets."""
    idx = np.asarray(index, dtype=np.int64)
    sums = src.scatter_add(idx, num_rows)
    counts = kernels.segment_counts(idx, num_rows, dtype=src.dtype)
    counts = np.maximum(counts, 1.0).reshape((num_rows,) + (1,) * (src.ndim - 1))
    return sums * Tensor(1.0 / counts)


def segment_sum(src: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Per-segment sum over the leading axis of ``src``."""
    idx, num_segments = _segment_args(index, num_segments)
    return src.segment_sum(idx, num_segments)


def segment_mean(src: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Per-segment mean over the leading axis (empty segments yield zeros)."""
    if isinstance(index, SegmentInfo):
        # Reuse the precomputed per-segment counts.
        sums = src.segment_sum(index.index, index.num_segments)
        counts = np.maximum(index.counts.astype(src.dtype), 1.0)
        counts = counts.reshape((index.num_segments,) + (1,) * (src.ndim - 1))
        return sums * Tensor(1.0 / counts)
    idx, num_segments = _segment_args(index, num_segments)
    return scatter_mean(src, idx, num_segments)


def segment_max(src: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Per-segment maximum over the leading axis (empty segments yield zeros)."""
    idx, num_segments = _segment_args(index, num_segments)
    return src.segment_max(idx, num_segments)


def segment_softmax(scores: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Softmax of ``scores`` normalised within segments given by ``index``.

    Used for attention over variable-sized neighbourhoods / subgraphs.
    """
    idx, num_segments = _segment_args(index, num_segments)
    # Numerically stabilise per segment using a stop-gradient max.
    seg_max = kernels.segment_max(scores.data, idx, num_segments)
    shifted = scores - Tensor(seg_max[idx])
    exp = shifted.exp()
    denom = exp.scatter_add(idx, num_segments)
    denom_gathered = denom.gather_rows(idx)
    return exp / (denom_gathered + 1e-16)


def to_padded(x: Tensor, index, pad_value: float = 0.0) -> tuple[Tensor, SegmentInfo]:
    """Pack flat per-row features into a dense padded ``(S, L, ...)`` view.

    ``index`` may be a batch vector or a precomputed :class:`SegmentInfo`.
    Returns the padded tensor (segments × ``max_count`` slots, rows placed in
    their segment order, unused slots holding ``pad_value``) together with the
    segment layout, whose ``mask`` marks the valid slots.  Differentiable:
    gradients of padded slots flow back to the originating rows only.
    """
    seg = segment_info(index)
    if x.shape[0] != seg.num_rows:
        raise ValueError(f"x has {x.shape[0]} rows but the batch vector has {seg.num_rows}")
    padded_rows = seg.num_segments * seg.max_count
    flat = x.scatter_add(seg.flat, padded_rows, unique=True)  # placement, not a sum
    padded = flat.reshape((seg.num_segments, seg.max_count) + x.shape[1:])
    if pad_value != 0.0:
        fill = np.where(seg.mask.reshape(seg.mask.shape + (1,) * (x.ndim - 1)),
                        0.0, float(pad_value)).astype(x.dtype, copy=False)
        padded = padded + Tensor(fill)
    return padded, seg


def from_padded(padded: Tensor, index) -> Tensor:
    """Inverse of :func:`to_padded`: gather valid slots back to the flat rows."""
    seg = segment_info(index)
    flat = padded.reshape((seg.num_segments * seg.max_count,) + padded.shape[2:])
    return flat.gather_rows(seg.flat, unique=True)
