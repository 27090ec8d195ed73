"""Micro-batcher contracts: the work-conserving policy and its plumbing.

:class:`MicroBatcher` has no clock: when the worker is free it takes up to
``max_batch`` of the oldest pending items as one batch.  Hypothesis drives
it with random submission sizes and arrival interleavings on an inline
executor (the runner runs synchronously on the event-loop thread, so every
batch boundary is deterministic) and checks the service invariants exactly:

* no batch ever exceeds ``max_batch``, and a batch is short only when it
  empties the queue (a free worker never leaves work waiting),
* batches are taken FIFO, none lost, none duplicated,
* demultiplexing is exact: each submitter gets its own results, in order.

A gated runner (blocked on a :class:`threading.Event`) pins the timing
contract on a real executor thread: an item sent to an idle batcher runs
alone at once, and items sent while it runs form the next batch.  The rest
covers cross-submitter coalescing, per-item fault isolation, the
cancellation of a failed or cancelled request's remaining items, queue
backpressure and the drain on :meth:`MicroBatcher.stop`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import MicroBatcher, ServerMetrics


def run(coroutine):
    return asyncio.run(coroutine)


class InlineExecutor(concurrent.futures.Executor):
    """Runs each submitted call at once, on the calling thread."""

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - handed to the future
            future.set_exception(exc)
        return future


class GatedRunner:
    """A runner that records each batch and blocks until ``gate`` opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.batches: list[list] = []

    def __call__(self, batch):
        self.batches.append(list(batch))
        self.started.set()
        assert self.gate.wait(timeout=30.0), "gate never opened"
        return [payload * 10 for payload in batch]

    async def wait_started(self):
        while not self.started.is_set():
            await asyncio.sleep(0.001)


# --------------------------------------------------------------------------- #
# Policy properties
# --------------------------------------------------------------------------- #
submissions = st.lists(
    st.tuples(st.integers(0, 12),   # items in the submission
              st.integers(0, 3)),   # event-loop turns before submitting
    min_size=1, max_size=12)


class TestPolicyProperties:
    @settings(max_examples=150, deadline=None)
    @given(plan=submissions, max_batch=st.integers(1, 8))
    def test_invariants(self, plan, max_batch):
        batches = []  # (batch, items still pending when it was taken)

        def runner(batch):
            batches.append((list(batch), batcher.depth))
            return [(payload, "result") for payload in batch]

        batcher = MicroBatcher(runner, max_batch=max_batch,
                               executor=InlineExecutor())

        async def main():
            submit_order = []

            async def submitter(index, size, delay):
                for _ in range(delay):
                    await asyncio.sleep(0)
                payloads = [(index, position) for position in range(size)]
                # submit() enqueues without yielding, so this order is the
                # queue order.
                submit_order.append(payloads)
                return await batcher.submit(payloads)

            batcher.start()
            results = await asyncio.gather(
                *[submitter(index, size, delay)
                  for index, (size, delay) in enumerate(plan)])
            await batcher.stop()
            return results, submit_order

        results, submit_order = run(main())
        # 1. No batch exceeds max_batch; a short batch emptied the queue.
        for batch, left_pending in batches:
            assert 1 <= len(batch) <= max_batch
            assert len(batch) == max_batch or left_pending == 0
        # 2. FIFO: batches concatenate to the queue order, nothing lost or
        #    duplicated.
        flushed = [payload for batch, _ in batches for payload in batch]
        assert flushed == [payload for payloads in submit_order
                           for payload in payloads]
        # 3. Exact demultiplexing: each submitter gets its own results.
        for index, ((size, _), result) in enumerate(zip(plan, results)):
            assert result == [((index, position), "result")
                              for position in range(size)]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda batch: batch, max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(lambda batch: batch, max_batch=8, max_queue=4)


# --------------------------------------------------------------------------- #
# Timing contract on a real executor thread
# --------------------------------------------------------------------------- #
class TestWorkConserving:
    def test_idle_item_runs_alone_and_arrivals_form_the_next_batch(self):
        runner = GatedRunner()

        async def main():
            batcher = MicroBatcher(runner, max_batch=64)
            batcher.start()
            first = asyncio.ensure_future(batcher.submit([1]))
            await runner.wait_started()  # the idle worker took it at once
            assert runner.batches == [[1]]
            second = asyncio.ensure_future(batcher.submit([2, 3]))
            third = asyncio.ensure_future(batcher.submit([4]))
            while batcher.depth < 3:
                await asyncio.sleep(0.001)
            assert runner.batches == [[1]]  # still computing the first batch
            runner.gate.set()
            results = await asyncio.gather(first, second, third)
            await batcher.stop()
            return results

        assert run(main()) == [[10], [20, 30], [40]]
        assert runner.batches == [[1], [2, 3, 4]]

    def test_stop_drains_pending_items(self):
        runner = GatedRunner()

        async def main():
            batcher = MicroBatcher(runner, max_batch=64)
            batcher.start()
            busy = asyncio.ensure_future(batcher.submit([1]))
            await runner.wait_started()
            pending = asyncio.ensure_future(batcher.submit([2, 3, 4]))
            while batcher.depth < 3:
                await asyncio.sleep(0.001)
            stopping = asyncio.ensure_future(batcher.stop())
            await asyncio.sleep(0.01)
            assert not pending.done() and not stopping.done()
            runner.gate.set()
            await stopping  # drain must run the queued items before stopping
            assert batcher.depth == 0
            return await busy, await pending

        assert run(main()) == ([10], [20, 30, 40])
        assert runner.batches == [[1], [2, 3, 4]]


# --------------------------------------------------------------------------- #
# Asyncio plumbing
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_demultiplexes_across_submitters(self):
        """Concurrent submitters coalesce; each gets exactly its results."""
        seen_batches = []

        def runner(batch):
            seen_batches.append(list(batch))
            return [payload * 10 for payload in batch]

        async def main():
            batcher = MicroBatcher(runner, max_batch=64, metrics=ServerMetrics())
            batcher.start()
            results = await asyncio.gather(
                batcher.submit([1, 2, 3]),
                batcher.submit([4, 5]),
                batcher.submit([6]),
            )
            await batcher.stop()
            return results

        results = run(main())
        assert results == [[10, 20, 30], [40, 50], [60]]
        # All six items coalesced into one shared batch: the submitters
        # enqueue in the same loop iteration, before the flush loop runs.
        assert seen_batches == [[1, 2, 3, 4, 5, 6]]

    def test_one_submission_splits_at_max_batch(self):
        flush_sizes = []

        def runner(batch):
            flush_sizes.append(len(batch))
            return list(batch)

        async def main():
            batcher = MicroBatcher(runner, max_batch=4)
            batcher.start()
            await batcher.submit(list(range(8)))
            await batcher.stop()

        run(main())
        assert flush_sizes == [4, 4]

    def test_per_item_fault_isolation(self):
        """A poisoned item fails alone; its batch-mates still get results."""

        def runner(batch):
            if any(payload == "poison" for payload in batch):
                raise RuntimeError("poisoned sample")
            return [f"ok:{payload}" for payload in batch]

        async def main():
            metrics = ServerMetrics()
            batcher = MicroBatcher(runner, max_batch=16, metrics=metrics)
            batcher.start()
            good, bad = await asyncio.gather(
                batcher.submit(["a", "b"]),
                batcher.submit(["poison"]),
                return_exceptions=True,
            )
            await batcher.stop()
            return good, bad, metrics

        good, bad, metrics = run(main())
        assert good == ["ok:a", "ok:b"]
        assert isinstance(bad, RuntimeError)
        assert metrics.get("batch_retries_total") >= 1
        assert metrics._errors.get("batch_item_error", 0) == 1

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "thread"])
    def test_failed_request_runs_no_retries_after_its_first_failure(self, threaded):
        """A poisoned 8-item request shares a batch with a good request: the
        batch fails, the first poisoned retry fails, and the request's other
        7 items are cancelled instead of run one by one."""
        calls = []

        def runner(batch):
            calls.append(list(batch))
            if any(payload.startswith("poison") for payload in batch):
                raise RuntimeError("poisoned design")
            return [f"ok:{payload}" for payload in batch]

        async def main(executor):
            metrics = ServerMetrics()
            batcher = MicroBatcher(runner, max_batch=16, executor=executor,
                                   metrics=metrics)
            batcher.start()
            bad, good = await asyncio.gather(
                batcher.submit([f"poison{i}" for i in range(8)]),
                batcher.submit(["a", "b", "c"]),
                return_exceptions=True,
            )
            await batcher.stop()
            return bad, good, metrics

        if threaded:
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as executor:
                bad, good, metrics = run(main(executor))
        else:
            bad, good, metrics = run(main(InlineExecutor()))
        assert isinstance(bad, RuntimeError)
        assert good == ["ok:a", "ok:b", "ok:c"]
        assert calls[0] == [f"poison{i}" for i in range(8)] + ["a", "b", "c"]
        assert calls[1:] == [["poison0"], ["a"], ["b"], ["c"]]
        assert metrics._errors.get("batch_item_error", 0) == 1

    def test_backpressure_bounds_queue_depth(self):
        metrics = ServerMetrics()

        def runner(batch):
            return list(batch)

        async def main():
            batcher = MicroBatcher(runner, max_batch=4, max_queue=4,
                                   metrics=metrics)
            batcher.start()
            results = await asyncio.gather(
                *[batcher.submit(list(range(i * 10, i * 10 + 5)))
                  for i in range(6)])
            await batcher.stop()
            return results

        results = run(main())
        assert [len(r) for r in results] == [5] * 6
        assert sorted(sum(results, [])) == sorted(
            sum([list(range(i * 10, i * 10 + 5)) for i in range(6)], []))
        # submit() waited for space instead of growing past the bound.
        assert metrics.max_queue_depth <= 4

    def test_request_cancelled_under_backpressure_runs_none_of_its_items(self):
        """A request cancelled (timeout, disconnect) while it waits for queue
        space leaves no item behind to compute."""
        runner = GatedRunner()

        async def main():
            batcher = MicroBatcher(runner, max_batch=2, max_queue=2)
            batcher.start()
            busy = asyncio.ensure_future(batcher.submit([1]))
            await runner.wait_started()
            blocked = asyncio.ensure_future(batcher.submit([2, 3, 4, 5]))
            while batcher.depth < 2:  # 2 and 3 queued, 4 waits for space
                await asyncio.sleep(0.001)
            blocked.cancel()
            runner.gate.set()
            result = await busy
            await batcher.stop()
            return result

        assert run(main()) == [10]
        assert runner.batches == [[1]]

    def test_submit_requires_running_batcher(self):
        async def main():
            batcher = MicroBatcher(lambda batch: batch)
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit([1])

        run(main())
