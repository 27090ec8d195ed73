"""Reverse-mode automatic differentiation on top of numpy arrays.

This module provides the :class:`Tensor` class used by every neural-network
component in :mod:`repro`.  It is intentionally small but complete enough to
express the CircuitGPS model family: dense layers, embeddings, batch/layer
normalisation, softmax attention, Performer linear attention and
message-passing aggregation (gather / scatter-add).

The design follows the classic tape-based approach: every differentiable
operation returns a new :class:`Tensor` holding references to its parents and
a closure computing the local vector-Jacobian product.  Calling
:meth:`Tensor.backward` topologically sorts the tape and accumulates
gradients into ``.grad``.  Layers whose composed expression would record
many nodes (``BatchNorm1d``, the GatedGCN gating) record one node each, with
a backward that runs the composed expression's steps.

Gradient ownership: a leaf (a parameter or a user input, ``_backward is
None``) owns a private ``.grad`` array, copied from the first gradient it
receives, as is the seed gradient of :meth:`Tensor.backward`.  A tape node
keeps the first gradient it receives as given, without a copy, when the
dtype already matches; that array may be shared with another node's
gradient or be a view of it.  This is safe because no backward closure,
``clip_grad_norm`` or optimizer writes into a ``.grad`` in place: later
contributions accumulate out of place (``self.grad + grad``), and clipping
rebinds ``p.grad``.  Code that edits a gradient in place must own it.

When no operand is on the tape (under :class:`no_grad`, or with no operand
requiring grad, see :func:`on_tape`), a few hot ops run their later steps in
place: the softmax exponentiates and normalises in the buffer its max-shift
allocated, and ``F.linear``, ``BatchNorm1d`` and the masked attention softmax
do the same with theirs.  An op writes only into an array it allocated
itself, never into an input, and the steps and their order are those of the
tape path, so the results are byte-identical; whenever grad is needed the
tape path runs unchanged.

The scatter and per-segment kernels and the stable sigmoid are the raw-array
functions of :mod:`repro.nn.kernels`.  Array dtypes follow the policy in :mod:`repro.nn.dtypes`: float64 by
default, float32 everywhere when serving under ``use_dtype(np.float32)``.
"""

from __future__ import annotations

import copy

import numpy as np

from . import kernels
from .dtypes import FLOAT_DTYPES, as_float, default_dtype

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "on_tape", "stable_sigmoid"]


def stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on raw numpy data.

    The naive ``1 / (1 + exp(-x))`` overflows for large-magnitude negative
    inputs; the kernel uses ``exp(-|x|)``, which is bounded by 1 for every
    input, so both branches are overflow-free.
    """
    return kernels.sigmoid(as_float(values))

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad()``; used in evaluation loops so that inference
    does not build an autograd tape.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def on_tape(*tensors: "Tensor") -> bool:
    """Whether an op over ``tensors`` records a backward on the tape.

    False under :class:`no_grad` or when no operand requires grad; an op
    may then write its later steps into a buffer it allocated itself.
    """
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def exp_normalise(shifted: np.ndarray, axis: int) -> np.ndarray:
    """``exp(shifted) / exp(shifted).sum(axis)``, computed in ``shifted``'s buffer."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum out leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype not in FLOAT_DTYPES:
        return data.astype(default_dtype())
    return as_float(data)


class Tensor:
    """A numpy array with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = None
        self._op = _op

    def __deepcopy__(self, memo) -> "Tensor":
        """A deep copy, slot by slot.

        Equal to the generic ``copy.deepcopy``, without the slot-state
        reduce protocol that made it most of a whole model's deep copy (a
        serving engine copies both of its models when it is built).
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name in Tensor.__slots__:
            setattr(clone, name, copy.deepcopy(getattr(self, name), memo))
        extra = getattr(self, "__dict__", None)  # a subclass's own attributes
        if extra:
            clone.__dict__.update(copy.deepcopy(extra, memo))
        return clone

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        """The array shape of the wrapped data."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """The numpy dtype of the wrapped data."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes), differentiable."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor as a python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """A detached copy of the data (no tape history)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other, dtype=None) -> "Tensor":
        """Wrap ``other`` as a tensor.  A Python number takes ``dtype`` (the
        tensor operand's), the NEP 50 weak-scalar rule, so ``x * 2.0`` keeps
        a float32 ``x`` float32 under any policy."""
        if isinstance(other, Tensor):
            return other
        if dtype is not None and isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=dtype))
        return Tensor(other)

    def _make(self, data, parents, backward, op: str) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else (), _op=op)
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A tape node keeps its first gradient as given (see the module
            # docstring); a leaf owns a private copy in its own dtype.
            if self._backward is None or grad.dtype != self.data.dtype:
                grad = grad.astype(self.data.dtype, copy=True)
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.array(grad, dtype=self.data.dtype)

        # Topological order of the compute graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._ensure(other, self.dtype)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward, "add")

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        other = self._ensure(other, self.dtype)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return self._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._ensure(other, self.dtype).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._ensure(other, self.dtype)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward, "mul")

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = self._ensure(other, self.dtype)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._ensure(other, self.dtype).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(out_data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Matrix product (the ``@`` operator), differentiable."""
        other = self._ensure(other, self.dtype)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.outer(grad, b) if a.ndim > 1 else grad * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(grad_a.reshape(a.shape), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim > 1 else a * grad
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_b.reshape(b.shape), b.shape))

        return self._make(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``), differentiable."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``, differentiable."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties share the gradient equally."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient between ties to keep the op well-defined.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / np.maximum(denom, 1.0))

        return self._make(out_data, (self,), backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance over ``axis``, differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        out = (diff * diff).mean(axis=axis, keepdims=keepdims)
        return out

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise exponential, differentiable."""
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm, differentiable."""
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root, differentiable."""
        out_data = np.sqrt(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return self._make(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent, differentiable."""
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise stable logistic map, differentiable."""
        out_data = kernels.sigmoid(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``, differentiable."""
        mask = self.data > 0
        out_data = self.data * mask  # mask is reused backward

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "relu")

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        c = float(np.sqrt(2.0 / np.pi))
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + t)

        def backward(grad):
            if self.requires_grad:
                dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
                dt = (1.0 - t ** 2) * dinner
                self._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

        return self._make(out_data, (self,), backward, "gelu")

    def abs(self) -> "Tensor":
        """Elementwise absolute value; grad is ``sign(x)``."""
        out_data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._make(out_data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp to ``[low, high]``; gradient is zero outside the band."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (numpy semantics), differentiable."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape))

        return self._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (all reversed when none given), differentiable."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(np.argsort(axes)))

        return self._make(out_data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Basic indexing (ints/slices) selects each element at most once, so
        # the backward can assign instead of the much slower ``np.add.at``.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(p, (int, slice)) or p is None or p is Ellipsis for p in parts)

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[index] = grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward, "getitem")

    def gather_rows(self, indices, unique: bool = False) -> "Tensor":
        """Select rows by integer index (differentiable embedding lookup).

        Pass ``unique=True`` when no index repeats: the backward pass then
        uses direct assignment instead of the much slower ``np.add.at``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    kernels.scatter_add(grad, idx, self.shape[0], unique=unique)
                )

        return self._make(out_data, (self,), backward, "gather_rows")

    def scatter_add(self, indices, num_rows: int, unique: bool = False) -> "Tensor":
        """Sum rows of ``self`` into ``num_rows`` buckets given by ``indices``.

        This is the aggregation primitive used by message passing: messages on
        edges are scattered into their destination nodes.  With ``unique=True``
        (no duplicate indices — e.g. padded-slot placement) the forward uses
        direct assignment instead of ``np.add.at``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = kernels.scatter_add(self.data, idx, num_rows, unique=unique)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad[idx])

        return self._make(out_data, (self,), backward, "scatter_add")

    def segment_sum(self, indices, num_segments: int) -> "Tensor":
        """Per-segment sum of rows: the segment-ops engine name for scatter-add."""
        return self.scatter_add(indices, num_segments)

    def segment_max(self, indices, num_segments: int) -> "Tensor":
        """Per-segment maximum of rows.

        Empty segments yield zero rows.  Gradients flow only to the winning
        entries; ties split the gradient evenly, matching PyTorch-scatter
        semantics.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = kernels.segment_max(self.data, idx, num_segments)
        winners = (self.data == out_data[idx]).astype(self.data.dtype)
        counts = kernels.scatter_add(winners, idx, num_segments)
        share = winners / np.maximum(counts, 1.0)[idx]

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad[idx] * share)

        return self._make(out_data, (self,), backward, "segment_max")

    # ------------------------------------------------------------------ #
    # Softmax family
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        """Stable softmax along ``axis``, differentiable."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        if not on_tape(self):
            return Tensor(exp_normalise(shifted, axis))
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - dot))

        return self._make(out_data, (self,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Stable log-softmax along ``axis``, differentiable."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        soft = np.exp(out_data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

        return self._make(out_data, (self,), backward, "log_softmax")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    probe = tensors[0]
    return probe._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    probe = tensors[0]
    return probe._make(out_data, tuple(tensors), backward, "stack")


# Attach the free functions to the Tensor namespace for convenience.
Tensor.concat = staticmethod(concat)
Tensor.stack = staticmethod(stack)
