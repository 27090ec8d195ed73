"""Shared utilities: RNG management, logging, serialisation, timing."""

from .logging import MetricLogger, get_logger
from .rng import get_rng, seed_all, spawn_rng, spawn_seeds
from .serialization import (
    CheckpointError,
    load_checkpoint,
    load_json,
    save_checkpoint,
    save_json,
    validate_state_keys,
)
from .timing import timed

__all__ = [
    "MetricLogger",
    "get_logger",
    "get_rng",
    "seed_all",
    "spawn_rng",
    "spawn_seeds",
    "CheckpointError",
    "load_checkpoint",
    "load_json",
    "save_checkpoint",
    "save_json",
    "validate_state_keys",
    "timed",
]
