"""The compute-backend interface of the segment-ops engine.

PR 4 funnelled every hot path of the model core — attention normalisation,
FAVOR+ reductions, GatedGCN aggregation, pooling — through roughly a dozen
segment-op primitives.  An :class:`ArrayBackend` implements exactly those
primitives over raw :class:`numpy.ndarray` values (array in, array out), and
the autograd layer (:mod:`repro.nn.tensor` / :mod:`repro.nn.functional`)
dispatches both its forward kernels *and* its backward vector-Jacobian
products through the active backend.  The tape, the layer code and the model
definitions never change when the backend does — only the kernels executing
underneath them.

Implementations ship in this package:

* :class:`~repro.nn.backends.numpy_backend.NumpyBackend` — the default,
  always available; its results are byte-equal to the historical op bodies
  (2-D ``np.add.at`` and friends) in float64 and float32.
* :class:`~repro.nn.backends.numba_backend.NumbaBackend` — JIT-compiled fused
  segment kernels; optional, import-guarded.
* :class:`~repro.nn.backends.torch_backend.TorchBackend` — torch CPU/GPU
  kernels over zero-copy ``torch.from_numpy`` views; optional, import-guarded.

Backends register in :data:`repro.api.BACKENDS` and are selected with
:func:`repro.nn.backends.set_backend` / ``--backend`` / ``REPRO_BACKEND``
(see the package ``__init__``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayBackend", "BackendUnavailableError"]


class BackendUnavailableError(RuntimeError):
    """An optional backend's dependency (numba, torch) is not importable."""


class ArrayBackend:
    """Abstract segment-op kernel set: raw ndarrays in, raw ndarrays out.

    Subclasses must implement the primitive kernels
    (:meth:`scatter_add`, :meth:`gather_rows`, :meth:`segment_max`,
    :meth:`segment_counts`, :meth:`matmul` and the elementwise maps); the
    composite segment ops (:meth:`segment_sum`, :meth:`segment_mean`,
    :meth:`to_padded`, :meth:`from_padded`) have default compositions here
    and may be overridden with fused kernels.

    Every kernel must preserve the floating dtype of its inputs (float32 in,
    float32 out) — the engine's precision policy
    (:mod:`repro.nn.dtypes`) relies on it.
    """

    #: registry name; set by the concrete class.
    name: str = "?"

    # ------------------------------------------------------------------ #
    # Availability
    # ------------------------------------------------------------------ #
    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend's dependencies import on this machine."""
        return True

    @classmethod
    def require(cls) -> None:
        """Raise :class:`BackendUnavailableError` when not available."""
        if not cls.is_available():
            raise BackendUnavailableError(
                f"compute backend {cls.name!r} is not available on this "
                f"machine (optional dependency not installed)"
            )

    # ------------------------------------------------------------------ #
    # Scatter / gather primitives
    # ------------------------------------------------------------------ #
    def scatter_add(self, src: np.ndarray, idx: np.ndarray, num_rows: int,
                    unique: bool = False) -> np.ndarray:
        """Sum rows of ``src`` into ``num_rows`` buckets given by ``idx``.

        With ``unique=True`` (no duplicate indices — e.g. padded-slot
        placement) the kernel may use direct assignment.  Empty buckets are
        zero rows.  This is also the backward kernel of :meth:`gather_rows`.
        """
        raise NotImplementedError

    def gather_rows(self, src: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Select rows of ``src`` by integer index (embedding lookup)."""
        raise NotImplementedError

    def segment_max(self, src: np.ndarray, idx: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Per-segment maximum of rows; empty segments yield zero rows.

        Doubles as the per-segment softmax stabiliser (the zero for empty
        segments matches the historical ``-inf -> 0`` replacement).
        """
        raise NotImplementedError

    def segment_counts(self, idx: np.ndarray, num_segments: int,
                       dtype=np.float64) -> np.ndarray:
        """Rows per segment as a float array (the scatter-mean denominator)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Dense linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product with numpy ``@`` batching semantics.

        Covers both the Linear-layer GEMMs and the padded batched matmuls of
        the attention kernels (``(G, H, L, L)`` scores, FAVOR+ ``kv`` outer
        products).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Elementwise maps
    # ------------------------------------------------------------------ #
    def exp(self, x: np.ndarray) -> np.ndarray:
        """Elementwise exponential."""
        raise NotImplementedError

    def log(self, x: np.ndarray) -> np.ndarray:
        """Elementwise natural logarithm."""
        raise NotImplementedError

    def tanh(self, x: np.ndarray) -> np.ndarray:
        """Elementwise hyperbolic tangent."""
        raise NotImplementedError

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Numerically stable logistic map (no overflow for any input)."""
        raise NotImplementedError

    def relu(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``max(x, 0)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Composite segment ops (default compositions; override to fuse)
    # ------------------------------------------------------------------ #
    def segment_sum(self, src: np.ndarray, idx: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Per-segment sum: the segment-ops name for :meth:`scatter_add`."""
        return self.scatter_add(src, idx, num_segments)

    def segment_mean(self, src: np.ndarray, idx: np.ndarray,
                     num_segments: int) -> np.ndarray:
        """Per-segment mean; empty segments yield zero rows."""
        sums = self.scatter_add(src, idx, num_segments)
        counts = self.segment_counts(idx, num_segments, dtype=src.dtype)
        counts = np.maximum(counts, 1.0).reshape(
            (num_segments,) + (1,) * (src.ndim - 1))
        return sums / counts

    def segment_softmax(self, src: np.ndarray, idx: np.ndarray,
                        num_segments: int, eps: float = 1e-16) -> np.ndarray:
        """Per-segment softmax over the leading axis (inference kernel).

        The autograd path composes this from the primitives so the tape can
        differentiate it; this fused form exists for raw-array callers and
        the parity suite.
        """
        seg_max = self.segment_max(src, idx, num_segments)
        shifted = src - self.gather_rows(seg_max, idx)
        exp = self.exp(shifted)
        denom = self.scatter_add(exp, idx, num_segments)
        return exp / (self.gather_rows(denom, idx) + eps)

    def to_padded(self, src: np.ndarray, flat: np.ndarray, num_segments: int,
                  max_count: int) -> np.ndarray:
        """Pack flat rows into the dense ``(S, L, ...)`` padded view.

        ``flat`` is the precomputed row index into the ``S * L`` padded row
        axis (see :class:`repro.nn.functional.SegmentInfo`); unused slots are
        zero.
        """
        placed = self.scatter_add(src, flat, num_segments * max_count, unique=True)
        return placed.reshape((num_segments, max_count) + src.shape[1:])

    def from_padded(self, padded: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_padded`: gather the valid slots back flat."""
        rows = padded.reshape((padded.shape[0] * padded.shape[1],) + padded.shape[2:])
        return self.gather_rows(rows, flat)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
