"""The default numpy compute backend.

These kernels are the op bodies of :mod:`repro.nn.tensor` and
:mod:`repro.nn.functional`: unbuffered ``ufunc.at`` for the scatter family,
fancy indexing for gathers, ``@`` for every matmul and the stable-``exp``
elementwise maps.

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

from .base import ArrayBackend

__all__ = ["NumpyBackend"]


def _at_rows(ufunc: np.ufunc, out: np.ndarray, idx: np.ndarray,
             src: np.ndarray) -> None:
    """``ufunc.at(out, idx, src)`` over rows, through the flat view of ``out``."""
    width = math.prod(out.shape[1:])
    flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
    ufunc.at(out.reshape(-1), flat, src.reshape(-1))


class NumpyBackend(ArrayBackend):
    """Pure-numpy kernels; always available, the engine default."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Scatter / gather primitives
    # ------------------------------------------------------------------ #
    def scatter_add(self, src, idx, num_rows, unique=False):
        out = np.zeros((num_rows,) + src.shape[1:], dtype=src.dtype)
        if unique:
            out[idx] = src
        else:
            _at_rows(np.add, out, idx, src)
        return out

    def gather_rows(self, src, idx):
        return src[idx]

    def segment_max(self, src, idx, num_segments):
        out = np.full((num_segments,) + src.shape[1:], -np.inf, dtype=src.dtype)
        _at_rows(np.maximum, out, idx, src)
        out[np.isneginf(out)] = 0.0
        return out

    def segment_counts(self, idx, num_segments, dtype=np.float64):
        # Integer counts: exact in every float dtype.
        return np.bincount(idx, minlength=num_segments).astype(dtype)

    # ------------------------------------------------------------------ #
    # Dense linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, a, b):
        return a @ b

    # ------------------------------------------------------------------ #
    # Elementwise maps
    # ------------------------------------------------------------------ #
    def exp(self, x):
        return np.exp(x)

    def log(self, x):
        return np.log(x)

    def tanh(self, x):
        return np.tanh(x)

    def sigmoid(self, x):
        # exp(-|x|) <= 1 for every input, so both branches are overflow-free:
        # 1 / (1 + z) where x >= 0, z / (1 + z) elsewhere, in one divide.
        z = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, z)
        out /= 1.0 + z
        return out

    def relu(self, x):
        return x * (x > 0)
