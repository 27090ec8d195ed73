"""A compact numpy-based neural-network library with reverse-mode autograd.

This package replaces the PyTorch / PyTorch-Geometric dependency of the
original CircuitGPS implementation.  It provides tensors with automatic
differentiation, the layers the GPS model is built from (Linear, Embedding,
MLP, BatchNorm, Dropout, ReLU), softmax and Performer attention, Adam with a
cosine learning-rate schedule, and the two training losses (binary
cross-entropy on logits for link pre-training, mean squared error for
regression fine-tuning) — everything needed to train the GPS-style hybrid
graph Transformer on CPU.
"""

from . import functional
from .attention import MultiHeadSelfAttention
from .dtypes import (FLOAT32, FLOAT64, FLOAT_DTYPES, as_float,
                     default_dtype, set_default_dtype, use_dtype)
from .functional import BucketLayout, SegmentInfo, bucket_layout, segment_info
from .layers import MLP, BatchNorm1d, Dropout, Embedding, Linear, ReLU
from .losses import bce_with_logits, mse_loss
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, CosineSchedule, clip_grad_norm
from .performer import PerformerAttention
from .tensor import Tensor, concat, no_grad, stable_sigmoid, stack

__all__ = [
    "Tensor",
    "stable_sigmoid",
    "no_grad",
    "concat",
    "stack",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "MLP",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "MultiHeadSelfAttention",
    "PerformerAttention",
    "SegmentInfo",
    "segment_info",
    "BucketLayout",
    "bucket_layout",
    "Adam",
    "CosineSchedule",
    "clip_grad_norm",
    "bce_with_logits",
    "mse_loss",
    "functional",
    "as_float",
    "FLOAT32",
    "FLOAT64",
    "FLOAT_DTYPES",
    "default_dtype",
    "set_default_dtype",
    "use_dtype",
]
