"""Process-pool execution layer: multi-worker annotation.

Annotation is embarrassingly parallel at two levels — the candidate chunks
of one netlist inside :meth:`~repro.core.serve.AnnotationEngine.score_pairs`,
and whole designs (or shards) inside
:meth:`~repro.core.serve.AnnotationEngine.annotate_many` /
:meth:`~repro.core.serve.AnnotationEngine.annotate_sharded` — and this module
is the one place that knows how to fan either out across processes:

* :func:`parallel_map` — an ordered ``map`` over a ``fork`` process pool.
  Work items stay in the parent and are handed to workers *by index*, so the
  mapped function and its captured state (requests, models, graphs) are
  inherited through ``fork`` instead of being pickled per task; only results
  travel back through pickling.
* :func:`parallel_imap` — the streaming form; ``score_pairs`` maps a
  :class:`~repro.core.data.LinkRequest`'s ``take`` over its chunks with it,
  so the parent forwards one block while the pool extracts the next ones.
* :func:`resolve_workers` / :func:`fork_available` / :func:`in_worker` — the
  shared policy helpers.  ``workers <= 1``, single-item workloads, platforms
  without ``fork`` and nested calls (a worker asking for its own pool) all
  degrade to the serial path, so callers never need a fallback branch.

Training never forks: its datasets are lists of extracted subgraphs, so there
is no per-batch work left to shard.

Determinism contract
--------------------
Parallelism must never change results.  Work is distributed in deterministic
chunks, every chunk is extracted with the same per-chunk seeding the serial
path uses, and results are merged in submission order — so for a fixed seed,
``workers = 0`` and ``workers = N`` produce byte-identical records and
annotation reports (``tests/core/test_parallel.py`` pins this, and
``benchmarks/test_parallel_throughput.py`` pins the >= 2x wall-clock win at
four workers).  Caches (:class:`~repro.core.data.PECache`) are per-worker:
each forked child inherits a copy-on-write snapshot and warms its own copy,
which trades some redundant PE work for zero cross-process synchronisation.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from typing import Callable, Sequence, TypeVar

__all__ = [
    "fork_available",
    "in_worker",
    "resolve_workers",
    "parallel_map",
    "parallel_imap",
    "default_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")

# Set (post-fork) inside pool workers so nested parallel_map calls run serial
# instead of oversubscribing the machine with pools-inside-pools.
_IN_WORKER = False

# The parent-side workload of the pool currently being served.  Read by the
# forked children (copy-on-write), never pickled.
_TASK: tuple[Callable, Sequence] | None = None


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def in_worker() -> bool:
    """True inside a :func:`parallel_map` pool worker (nested calls go serial)."""
    return _IN_WORKER


def resolve_workers(workers: int | None, num_items: int) -> int:
    """Effective worker count for a workload of ``num_items`` tasks.

    ``None`` and values ``<= 0`` mean serial (0); negative counts are *not*
    interpreted as "all cores" — explicitness beats magic.  The count is
    clamped to ``num_items`` (idle workers are pure fork overhead), and any
    request degrades to serial when ``fork`` is unavailable or when already
    inside a pool worker.
    """
    if workers is None or workers <= 0 or num_items <= 1:
        return 0
    if not fork_available() or in_worker():
        return 0
    return min(int(workers), num_items)


def _mark_worker() -> None:
    """Pool initializer: flag the child so nested pools degrade to serial."""
    global _IN_WORKER
    _IN_WORKER = True


def _run_indexed(index: int):
    """Execute work item ``index`` of the fork-inherited workload."""
    fn, items = _TASK
    return fn(items[index])


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: int | None = None) -> list[R]:
    """Ordered ``[fn(item) for item in items]`` over a fork process pool.

    ``fn`` and ``items`` are published to the children via ``fork``
    inheritance (copy-on-write), so neither needs to be picklable — only the
    *results* are pickled back to the parent.  Results come back in input
    order regardless of which worker finished first, and a worker exception
    propagates to the caller exactly as in the serial path.  With
    ``resolve_workers(workers, len(items)) == 0`` this is a plain list
    comprehension, so callers use one code path for both modes.
    """
    items = list(items)
    pool_size = resolve_workers(workers, len(items))
    if pool_size == 0:
        return [fn(item) for item in items]

    global _TASK
    if _TASK is not None:
        # A pool is already being served from this process (e.g. a callback
        # re-entered parallel_map); don't clobber its workload.
        return [fn(item) for item in items]
    _TASK = (fn, items)
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=pool_size, initializer=_mark_worker) as pool:
            return pool.map(_run_indexed, range(len(items)),
                            chunksize=max(1, len(items) // (4 * pool_size)))
    finally:
        _TASK = None


def parallel_imap(fn: Callable[[T], R], items: Sequence[T],
                  workers: int | None = None, buffer: int | None = None):
    """Streaming :func:`parallel_map`: yield results in order as they finish.

    Same distribution, ordering and fallback semantics as
    :func:`parallel_map`, but results are yielded one at a time and at most
    ``buffer`` tasks (default ``workers + 2``) are in flight — real
    backpressure, not ``pool.imap`` (which dispatches every task up front and
    would buffer all not-yet-consumed results in the parent when the consumer
    is slower than the pool).  A consumer that processes result ``i`` while
    the pool computes the next window overlaps compute with consumption at
    bounded memory.
    """
    items = list(items)
    pool_size = resolve_workers(workers, len(items))
    global _TASK
    if pool_size == 0 or _TASK is not None:
        for item in items:
            yield fn(item)
        return
    window = buffer if buffer is not None else pool_size + 2
    _TASK = (fn, items)
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=pool_size, initializer=_mark_worker) as pool:
            pending: deque = deque()
            for index in range(len(items)):
                pending.append(pool.apply_async(_run_indexed, (index,)))
                if len(pending) >= window:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
    finally:
        _TASK = None


def default_worker_count(cap: int = 8) -> int:
    """A sensible worker count for this machine: ``min(cpu_count, cap)``.

    Backs the CLI's ``--workers -1`` ("auto") requests; never exceeds
    ``cap`` because annotation workloads saturate well before that.
    """
    return max(1, min(os.cpu_count() or 1, cap))
