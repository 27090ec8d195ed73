"""Op-level throughput of the autograd engine's kernels.

Micro-benchmarks the segment-op kernels every model forward/backward is
built from — ``scatter_add``, the row gather, ``segment_max``,
``segment_softmax`` and the dense matmul — on ragged workloads shaped like
collated enclosing-subgraph batches, and prints the timings.

This module is intentionally *not* marked ``benchmark``: the micro-benchmark
runs with the tier-1 suite (sub-second).
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn import kernels
from repro.nn.functional import segment_softmax
from repro.nn.tensor import Tensor

NUM_ROWS = 200_000
NUM_SEGMENTS = 20_000
DIM = 64
REPEATS = 3


def _ragged_workload(rng: np.random.Generator):
    """A ragged segment workload: ~10 rows per segment, uneven sizes."""
    idx = np.sort(rng.integers(0, NUM_SEGMENTS, size=NUM_ROWS))
    src = rng.normal(size=(NUM_ROWS, DIM))
    return src, idx


def _time(fn) -> float:
    fn()  # warm-up (allocator)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_op_microbenchmarks():
    rng = np.random.default_rng(0)
    src, idx = _ragged_workload(rng)
    scores = Tensor(rng.normal(size=NUM_ROWS), requires_grad=False)
    lhs, rhs = rng.normal(size=(512, DIM)), rng.normal(size=(DIM, DIM))
    rows = idx % len(src)

    timings = {
        "scatter_add_s": _time(lambda: kernels.scatter_add(src, idx, NUM_SEGMENTS)),
        "gather_rows_s": _time(lambda: src[rows]),
        "segment_max_s": _time(lambda: kernels.segment_max(src, idx, NUM_SEGMENTS)),
        "segment_softmax_s": _time(
            lambda: segment_softmax(scores, idx, NUM_SEGMENTS)),
        "matmul_s": _time(lambda: lhs @ rhs),
    }

    summary = ", ".join(f"{k} {v * 1e3:.2f} ms" for k, v in timings.items())
    print(f"\nkernel ops: {summary}")
    # Sanity floor, not a race: the engine must push ≥ 10M row-elements/s
    # through scatter_add (NumPy manages ~1G on a laptop; the slack absorbs
    # full-suite contention on small CI runners without hiding a 100x cliff).
    assert timings["scatter_add_s"] < NUM_ROWS * DIM / 1e7
