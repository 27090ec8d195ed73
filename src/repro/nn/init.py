"""Parameter initialisation schemes."""

from __future__ import annotations

import numpy as np

from .dtypes import FLOAT64

__all__ = ["xavier_uniform", "zeros", "normal"]


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a 2-D weight matrix."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=FLOAT64)


def normal(shape: tuple, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out
