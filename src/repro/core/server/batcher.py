"""Work-conserving cross-request micro-batching.

The daemon's hot path: candidate links arriving from *different* concurrent
requests are coalesced into shared inference batches.  The policy needs no
clock: as soon as the compute worker is free, it takes up to ``max_batch``
of the oldest pending items (FIFO) as one batch, and everything that
arrives while that batch computes joins the next one.  An item sent to an
idle batcher therefore starts at once, and coalescing grows with load.
:meth:`MicroBatcher.submit` enqueues all of one request's items without
yielding, so they are pending together when the worker next takes a batch.

Results are demultiplexed back to the submitting requests item by item, so
a request's outputs are exactly what it would have received from a private
batch (modulo ~1-ulp float noise, absorbed by the canonical wire
quantization in :mod:`repro.core.server.wire`).  Around the policy sit a
single flush loop, an inference executor, backpressure via a bounded queue,
a drain on :meth:`MicroBatcher.stop`, and per-item fault isolation (a batch
that raises is retried item by item, so one poisoned sample fails alone
instead of poisoning its batch-mates from other requests; the rest of the
failed sample's own request is cancelled, not retried).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Sequence

from ...utils.logging import get_logger

__all__ = ["MicroBatcher"]

logger = get_logger("repro.serve.batcher")


class _Item:
    """One pending unit of work: an opaque payload, its result future and
    the futures of every item of the same submission (``request``)."""

    __slots__ = ("payload", "future", "request")

    def __init__(self, payload, future: asyncio.Future, request: list):
        self.payload = payload
        self.future = future
        self.request = request


class MicroBatcher:
    """Asyncio batcher: submit items, await demultiplexed results.

    ``runner`` is a synchronous callable ``list[payload] -> list[result]``
    executed on ``executor`` (the daemon passes its single compute thread,
    keeping all numpy work serialized and deterministic).  ``max_batch``
    bounds one batch; ``max_queue`` bounds the pending backlog:
    :meth:`submit` applies backpressure by waiting for space instead of
    growing without limit under a slow consumer or a flood of requests.
    """

    def __init__(self, runner: Callable[[list], list], *, max_batch: int = 256,
                 executor=None, max_queue: int = 8192, metrics=None):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_queue < max_batch:
            raise ValueError("max_queue must be at least max_batch")
        self.runner = runner
        self.max_batch = int(max_batch)
        self.executor = executor
        self.max_queue = int(max_queue)
        self.metrics = metrics
        self._pending: deque[_Item] = deque()
        self._wakeup: asyncio.Event | None = None
        self._space: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._stopping = False

    @property
    def depth(self) -> int:
        """Number of items currently pending (not yet taken into a batch)."""
        return len(self._pending)

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
        exception if one item's evaluation failed (other submitters are
        unaffected); the request's items that have not run yet are then
        cancelled, not computed.
        """
        futures: list[asyncio.Future] = []
        try:
            for payload in payloads:
                futures.append(await self._enqueue(payload, futures))
            return await asyncio.gather(*futures)
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    async def _enqueue(self, payload, request: list) -> asyncio.Future:
        if self._task is None:
            raise RuntimeError("micro-batcher is not running")
        while len(self._pending) >= self.max_queue:
            self._space.clear()
            await self._space.wait()
        future = asyncio.get_running_loop().create_future()
        self._pending.append(_Item(payload, future, request))
        if self.metrics is not None:
            self.metrics.observe_queue_depth(len(self._pending))
        self._wakeup.set()
        return future

    # ------------------------------------------------------------------ #
    # Flush loop
    # ------------------------------------------------------------------ #
    async def _flush_loop(self) -> None:
        while True:
            if not self._pending:
                if self._stopping:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            count = min(self.max_batch, len(self._pending))
            await self._run_batch([self._pending.popleft() for _ in range(count)])
            self._space.set()

    async def _run_batch(self, items: list[_Item]) -> None:
        """Evaluate one batch on the executor and demultiplex the results.

        Items whose futures were cancelled (request timeout / disconnect)
        are dropped before evaluation.  A batch-level exception triggers a
        per-item retry so a single poisoned sample cannot fail work
        submitted by other requests.
        """
        loop = asyncio.get_running_loop()
        live = [item for item in items if not item.future.done()]
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
            if not item.future.done():
                item.future.set_result(result)

    async def _run_items_individually(self, items: list[_Item]) -> None:
        loop = asyncio.get_running_loop()
        for item in items:
            if item.future.done():
                continue
            try:
                result = await loop.run_in_executor(self.executor, self.runner,
                                                    [item.payload])
                if self.metrics is not None:
                    self.metrics.observe_batch(1)
                if not item.future.done():
                    item.future.set_result(result[0])
            except Exception as exc:
                if self.metrics is not None:
                    self.metrics.inc_error("batch_item_error")
                if not item.future.done():
                    item.future.set_exception(exc)
                # The request has failed: cancel its other items here,
                # before the next retry is dispatched, not once submit()
                # has seen the failure.
                for future in item.request:
                    future.cancel()
