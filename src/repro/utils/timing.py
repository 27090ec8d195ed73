"""Wall-clock timing helper."""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["timed"]


@contextmanager
def timed(store: dict, key: str):
    """Context manager adding the elapsed seconds to ``store[key]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        store[key] = store.get(key, 0.0) + (time.perf_counter() - start)
