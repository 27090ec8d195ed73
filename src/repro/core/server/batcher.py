"""Cross-request micro-batching with a bounded latency budget.

The daemon's hot path: candidate links arriving from *different* concurrent
requests are coalesced into shared inference batches.  A batch is flushed as
soon as either

* ``max_batch`` items are pending (throughput bound), or
* the **oldest** pending item has waited ``window_s`` seconds (latency
  bound — no item ever waits more than one latency budget past its arrival
  before its flush is initiated), or
* the compute worker has just finished a batch and the queue is non-empty
  (adaptive flush — work that accumulated *during* the previous batch has
  already waited its turn, so holding it for the rest of the window would
  add latency without improving occupancy),

whichever comes first.  Results are demultiplexed back to the submitting
requests item-by-item, so a request's outputs are exactly what it would have
received from a private batch (modulo ~1-ulp float noise, absorbed by the
canonical wire quantization in :mod:`repro.core.server.wire`).

The flush *policy* lives in :class:`MicroBatcherCore`, a pure synchronous
state machine that takes the current time as an argument — which is what
lets ``tests/core/test_server_batcher.py`` drive it property-based against a
simulated clock.  :class:`MicroBatcher` wraps the core in asyncio plumbing:
a single flush loop, an inference executor, backpressure via a bounded
queue, and per-item fault isolation (a batch that raises is retried item by
item, so one poisoned sample fails alone instead of poisoning its
batch-mates from other requests).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Sequence

from ...utils.logging import get_logger

__all__ = ["MicroBatcherCore", "MicroBatcher"]

logger = get_logger("repro.serve.batcher")


class _Item:
    """One pending unit of work: an opaque payload plus its arrival time."""

    __slots__ = ("payload", "arrival", "future")

    def __init__(self, payload, arrival: float, future=None):
        self.payload = payload
        self.arrival = arrival
        self.future = future


class MicroBatcherCore:
    """The pure flush-policy state machine (no I/O, no real clock).

    All methods take ``now`` explicitly; the asyncio wrapper passes
    ``loop.time()`` and the property-based tests pass a simulated clock.
    """

    def __init__(self, max_batch: int, window_s: float):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        self.max_batch = int(max_batch)
        self.window_s = float(window_s)
        self._pending: deque[_Item] = deque()

    @property
    def depth(self) -> int:
        """Number of items currently pending."""
        return len(self._pending)

    def add(self, payload, now: float, future=None) -> _Item:
        """Enqueue one item; returns it (FIFO order is preserved)."""
        item = _Item(payload, float(now), future)
        self._pending.append(item)
        return item

    def next_deadline(self) -> float | None:
        """When the oldest pending item's latency budget expires (None: idle)."""
        if not self._pending:
            return None
        return self._pending[0].arrival + self.window_s

    def ready(self, now: float) -> bool:
        """Whether a batch should be flushed at time ``now``."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        return now >= self.next_deadline()

    def take(self) -> list[_Item]:
        """Pop the next batch: up to ``max_batch`` oldest items, FIFO."""
        batch = []
        while self._pending and len(batch) < self.max_batch:
            batch.append(self._pending.popleft())
        return batch


class MicroBatcher:
    """Asyncio front-end: submit items, await demultiplexed results.

    ``runner`` is a synchronous callable ``list[payload] -> list[result]``
    executed on ``executor`` (the daemon passes its single compute thread,
    keeping all numpy work serialized and deterministic).  ``max_queue``
    bounds the pending backlog: :meth:`submit` applies backpressure by
    waiting for space instead of growing without limit under a slow
    consumer or a flood of requests.
    """

    def __init__(self, runner: Callable[[list], list], *, max_batch: int = 256,
                 window_s: float = 0.010, executor=None, max_queue: int = 8192,
                 metrics=None):
        if max_queue < max_batch:
            raise ValueError("max_queue must be at least max_batch")
        self.runner = runner
        self.core = MicroBatcherCore(max_batch, window_s)
        self.executor = executor
        self.max_queue = int(max_queue)
        self.metrics = metrics
        self._wakeup: asyncio.Event | None = None
        self._space: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._task is not None:
            raise RuntimeError("micro-batcher already started")
        self._stopping = False
        self._wakeup = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()
        self._task = asyncio.get_running_loop().create_task(self._flush_loop())

    async def stop(self) -> None:
        """Flush everything still pending, then stop the loop."""
        if self._task is None:
            return
        self._stopping = True
        self._wakeup.set()
        await self._task
        self._task = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, payloads: Sequence) -> list:
        """Enqueue ``payloads`` and await their demultiplexed results.

        Results come back aligned with ``payloads``.  Raises the per-item
        exception if this item's evaluation failed (other submitters are
        unaffected).
        """
        futures = [await self._enqueue(payload) for payload in payloads]
        return await asyncio.gather(*futures)

    async def _enqueue(self, payload) -> asyncio.Future:
        if self._task is None:
            raise RuntimeError("micro-batcher is not running")
        loop = asyncio.get_running_loop()
        while self.core.depth >= self.max_queue:
            self._space.clear()
            await self._space.wait()
        future = loop.create_future()
        self.core.add(payload, loop.time(), future)
        if self.metrics is not None:
            self.metrics.observe_queue_depth(self.core.depth)
        self._wakeup.set()
        return future

    # ------------------------------------------------------------------ #
    # Flush loop
    # ------------------------------------------------------------------ #
    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self.core.depth == 0:
                if self._stopping:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            now = loop.time()
            # Draining: latency budgets no longer apply, flush everything.
            if self.core.ready(now) or self._stopping:
                await self._run_batch(self.core.take())
                self._space.set()
                # Adaptive follow-up flushes: items that arrived while that
                # batch was computing have already waited their turn.  The
                # worker is free, so holding them for the rest of the window
                # would cost latency without improving batch occupancy —
                # flush immediately until the backlog is gone.
                while self.core.depth:
                    await self._run_batch(self.core.take())
                    self._space.set()
                continue
            timeout = max(0.0, self.core.next_deadline() - now)
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=timeout)
                self._wakeup.clear()
            except asyncio.TimeoutError:
                pass

    async def _run_batch(self, items: list[_Item]) -> None:
        """Evaluate one batch on the executor and demultiplex the results.

        Items whose futures were cancelled (request timeout / disconnect)
        are dropped before evaluation.  A batch-level exception triggers a
        per-item retry so a single poisoned sample cannot fail work
        submitted by other requests.
        """
        loop = asyncio.get_running_loop()
        live = [item for item in items if item.future is None or not item.future.done()]
        if not live:
            return
        payloads = [item.payload for item in live]
        try:
            results = await loop.run_in_executor(self.executor, self.runner, payloads)
            if len(results) != len(payloads):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
        except Exception as exc:
            logger.debug("batch of %d failed (%s: %s); retrying items "
                         "individually", len(live), type(exc).__name__, exc)
            if self.metrics is not None:
                self.metrics.inc("batch_retries_total")
            await self._run_items_individually(live)
            return
        if self.metrics is not None:
            self.metrics.observe_batch(len(live))
        for item, result in zip(live, results):
            if item.future is not None and not item.future.done():
                item.future.set_result(result)

    async def _run_items_individually(self, items: list[_Item]) -> None:
        loop = asyncio.get_running_loop()
        for item in items:
            if item.future is not None and item.future.done():
                continue
            try:
                result = await loop.run_in_executor(self.executor, self.runner,
                                                    [item.payload])
                if self.metrics is not None:
                    self.metrics.observe_batch(1)
                if item.future is not None and not item.future.done():
                    item.future.set_result(result[0])
            except Exception as exc:
                if self.metrics is not None:
                    self.metrics.inc_error("batch_item_error")
                if item.future is not None and not item.future.done():
                    item.future.set_exception(exc)
