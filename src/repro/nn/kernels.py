"""Raw-array kernels of the autograd engine: row scatters and the sigmoid.

:mod:`repro.nn.tensor`, :mod:`repro.nn.functional` and
:mod:`repro.nn.performer` run their scatter and per-segment kernels (forward
and backward) through these functions.  Arrays in, arrays out; every kernel
keeps the floating dtype of its input (float32 in, float32 out), as the
precision policy of :mod:`repro.nn.dtypes` needs.

Scatters over rows go through the flat view of the output: row ``i``,
column ``j`` of a ``(rows, width)`` array is element ``i * width + j`` of its
1-D view (the ``row * num_nodes + col`` edge-id flattening), and 1-D
``ufunc.at`` is several times faster than its 2-D form.  The flat index
lists each source row's elements in row order, so every output element
still accumulates its contributions in source-row order, with the same
float operations: the result is byte-equal to the 2-D ``np.add.at`` /
``np.maximum.at``, in float64 and float32.  ``np.bincount`` is faster
still, but it accumulates in float64, so its float32 sums are not
byte-equal; it is used only for the integer segment counts, which it
returns exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["row_index", "scatter_add", "scatter_rows", "segment_counts", "segment_max",
           "sigmoid"]


def row_index(idx: np.ndarray, width: int) -> np.ndarray:
    """Flat element index of rows ``idx`` of a ``(rows, width)`` array.

    Row ``i``, column ``j`` is element ``i * width + j`` of the array's 1-D
    view; the index lists each selected row's elements in row order.
    """
    return (idx[:, None] * width + np.arange(width)).reshape(-1)


def _at_rows(ufunc: np.ufunc, out: np.ndarray, idx: np.ndarray,
             src: np.ndarray) -> None:
    """``ufunc.at(out, idx, src)`` over rows, through the flat view of ``out``."""
    flat = row_index(idx, math.prod(out.shape[1:]))
    ufunc.at(out.reshape(-1), flat, src.reshape(-1))


def scatter_rows(src: np.ndarray, flat: np.ndarray, num_rows: int) -> np.ndarray:
    """:func:`scatter_add` through a prebuilt ``flat = row_index(idx, width)``.

    A caller that scatters several arrays over one index builds it once.
    """
    out = np.zeros((num_rows,) + src.shape[1:], dtype=src.dtype)
    np.add.at(out.reshape(-1), flat, src.reshape(-1))
    return out


def scatter_add(src: np.ndarray, idx: np.ndarray, num_rows: int,
                unique: bool = False) -> np.ndarray:
    """Sum rows of ``src`` into ``num_rows`` buckets given by ``idx``.

    With ``unique=True`` (no duplicate indices, e.g. padded-slot placement)
    the rows are assigned directly.  Empty buckets are zero rows.  This is
    also the backward kernel of a row gather.
    """
    if not unique:
        return scatter_rows(src, row_index(idx, math.prod(src.shape[1:])), num_rows)
    out = np.zeros((num_rows,) + src.shape[1:], dtype=src.dtype)
    out[idx] = src
    return out


def segment_max(src: np.ndarray, idx: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Per-segment maximum of rows; empty segments yield zero rows.

    Doubles as the per-segment softmax stabiliser (the zero for empty
    segments matches the historical ``-inf -> 0`` replacement).
    """
    out = np.full((num_segments,) + src.shape[1:], -np.inf, dtype=src.dtype)
    _at_rows(np.maximum, out, idx, src)
    out[np.isneginf(out)] = 0.0
    return out


def segment_counts(idx: np.ndarray, num_segments: int, dtype) -> np.ndarray:
    """Rows per segment as a float array (the scatter-mean denominator)."""
    # Integer counts: exact in every float dtype.
    return np.bincount(idx, minlength=num_segments).astype(dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic map (no overflow for any input)."""
    # z = exp(-|x|) <= 1 for every input, so both branches are overflow-free:
    # 1 / (1 + z) where x >= 0, z / (1 + z) elsewhere, in one divide.  The
    # numerator max(z, x >= 0) is 1 or z (NaN stays NaN), and every step
    # after the first two allocations runs in place.  ``out=`` keeps a 0-d
    # input an array.
    z = np.abs(x, out=np.empty_like(x))
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.greater_equal(x, 0, out=np.empty_like(x))
    np.maximum(z, out, out=out)
    z += 1
    out /= z
    return out
