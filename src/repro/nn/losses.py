"""Loss functions for pre-training (link prediction) and fine-tuning (regression)."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["bce_with_logits", "mse_loss"]


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def bce_with_logits(logits: Tensor, targets, pos_weight: float | None = None) -> Tensor:
    """Numerically-stable binary cross-entropy on raw logits.

    Used for link-prediction pre-training, where targets are 1 for observed
    coupling links and 0 for injected negative links.
    """
    logits = _ensure(logits)
    targets = _ensure(targets)
    # log(1 + exp(-|x|)) formulation keeps exponentials bounded.
    abs_neg = (logits.abs() * -1.0).exp()
    log_term = (abs_neg + 1.0).log()
    relu_term = logits.relu()
    loss = relu_term - logits * targets + log_term
    if pos_weight is not None and pos_weight != 1.0:
        weights = Tensor(np.where(targets.data > 0.5, float(pos_weight), 1.0))
        loss = loss * weights
    return loss.mean()


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error (used for capacitance regression)."""
    pred = _ensure(pred)
    target = _ensure(target)
    diff = pred - target
    return (diff * diff).mean()
