"""Core neural-network layers: Linear, Embedding, MLP, normalisation, dropout."""

from __future__ import annotations

import numpy as np

from ..utils.rng import get_rng
from . import functional as F
from . import init
from .module import Module, Parameter
from .dtypes import as_float
from .tensor import Tensor, on_tape

__all__ = [
    "Linear",
    "Embedding",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
]


class Linear(Module):
    """Affine transform ``y = x W + b`` with ``W`` of shape (in_dim, out_dim)."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.weight = Parameter(init.xavier_uniform((self.in_dim, self.out_dim), rng))
        self.bias = Parameter(init.zeros((self.out_dim,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map ``x @ weight + bias``."""
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return f"Linear(in_dim={self.in_dim}, out_dim={self.out_dim})"


class Embedding(Module):
    """Lookup table mapping integer codes to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.num_embeddings = int(num_embeddings)
        self.dim = int(dim)
        self.weight = Parameter(init.normal((self.num_embeddings, self.dim), rng, std=0.1))

    def forward(self, indices) -> Tensor:
        """Look up the rows of ``weight`` selected by ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={idx.min() if idx.size else 0}, max={idx.max() if idx.size else 0}"
            )
        return F.embedding(self.weight, idx)

    def __repr__(self):
        return f"Embedding(num_embeddings={self.num_embeddings}, dim={self.dim})"


class Dropout(Module):
    """Inverted dropout applied only in training mode."""

    def __init__(self, p: float = 0.0, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = get_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero entries of ``x`` in training mode."""
        return F.dropout(x, self.p, self.training, self._rng)

    def __repr__(self):
        return f"Dropout(p={self.p})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        """Elementwise ``max(x, 0)``."""
        return x.relu()


class BatchNorm1d(Module):
    """Batch normalisation over the first axis of a 2-D tensor.

    The GPS layer applies BN after every functional block (MPNN, attention,
    MLP), following the GraphGPS recipe.

    On the tape the layer is one node, ``x_hat * gamma + beta`` with
    ``x_hat = (x - mean) * inv_std``, whose backward keeps ``x_hat``.  The
    mean and inverse deviation are constants of that node, the batch
    statistics in training mode included: the input gradient is
    ``grad * gamma * inv_std`` and does not flow through the batch mean or
    variance, as it does in PyTorch's BN.  This node is the one place where
    that would change.  Off the tape the same steps run in one buffer.
    Inputs whose dtype differs from the statistics or the parameters take
    the composed Tensor expression, which promotes.
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.dim = int(dim)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(self.dim))
        self.beta = Parameter(np.zeros(self.dim))
        self.register_buffer("running_mean", np.zeros(self.dim))
        self.register_buffer("running_var", np.ones(self.dim))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise the batch axis; updates running stats in training."""
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects a 2-D input, got shape {x.shape}")
        centred = None
        if self.training and x.shape[0] > 1:
            mean = x.data.mean(axis=0)
            centred = x.data - mean
            # ``x.data.var(axis=0)``'s steps on the centred rows it would
            # compute again: column sums of squares over the row count.
            var = np.square(centred).sum(axis=0)
            np.true_divide(var, np.intp(x.shape[0]), out=var, casting="unsafe")
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        mean = as_float(mean)
        inv_std = as_float(1.0 / np.sqrt(var + self.eps))
        gamma, beta = self.gamma, self.beta
        if not x.dtype == mean.dtype == inv_std.dtype == gamma.dtype == beta.dtype:
            x_hat = (x - Tensor(mean)) * Tensor(inv_std)
            return x_hat * gamma + beta
        x_hat = x.data - mean if centred is None else centred
        x_hat *= inv_std
        if not on_tape(x, gamma, beta):
            x_hat *= gamma.data
            x_hat += beta.data
            return Tensor(x_hat)
        out = x_hat * gamma.data
        out += beta.data

        def backward(grad):
            if beta.requires_grad:
                beta._accumulate(grad.sum(axis=(0,)))
            if gamma.requires_grad:
                gamma._accumulate((grad * x_hat).sum(axis=(0,)))
            if x.requires_grad:
                x._accumulate((grad * gamma.data) * inv_std)

        return x._make(out, (x, gamma, beta), backward, "batchnorm")

    def __repr__(self):
        return f"BatchNorm1d(dim={self.dim})"


class MLP(Module):
    """Multi-layer perceptron with configurable depth and activation.

    ``dims = [in, hidden, ..., out]``.  Dropout (if any) is applied after each
    hidden activation.
    """

    def __init__(self, dims: list[int], activation: str = "relu", dropout: float = 0.0,
                 bias: bool = True, rng=None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dimensions")
        rng = get_rng(rng)
        self.dims = list(int(d) for d in dims)
        self.activation = activation
        from .module import ModuleList

        self.layers = ModuleList(
            [Linear(a, b, bias=bias, rng=rng) for a, b in zip(self.dims[:-1], self.dims[1:])]
        )
        self.drop = Dropout(dropout, rng=rng) if dropout > 0 else None

    def _act(self, x: Tensor) -> Tensor:
        if self.activation == "relu":
            return x.relu()
        if self.activation == "gelu":
            return x.gelu()
        if self.activation == "tanh":
            return x.tanh()
        if self.activation == "none":
            return x
        raise ValueError(f"unknown activation {self.activation!r}")

    def forward(self, x: Tensor) -> Tensor:
        """Run ``x`` through every linear layer with activation between."""
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            x = layer(x)
            if index != last:
                x = self._act(x)
                if self.drop is not None:
                    x = self.drop(x)
        return x

    def __repr__(self):
        return f"MLP(dims={self.dims}, activation={self.activation!r})"
