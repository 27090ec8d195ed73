"""Persistent annotation service: the ``repro serve`` daemon.

This package turns the batched :class:`~repro.core.serve.AnnotationEngine`
into a long-lived, stdlib-only (``asyncio`` + sockets) JSON-over-HTTP
service that keeps the loaded pipeline resident and **coalesces the forward
passes of different in-flight requests into shared inference batches**:

* :mod:`~repro.core.server.batcher` — the cross-request micro-batcher: a
  pure flush-policy state machine (:class:`MicroBatcherCore`, fully testable
  against a simulated clock) driven by an asyncio wrapper
  (:class:`MicroBatcher`) that flushes on ``max_batch`` or the latency
  budget ``batch_window_ms``, whichever comes first, and demultiplexes
  per-item results back to their requests.
* :mod:`~repro.core.server.app` — the HTTP daemon
  (:class:`AnnotationServer`): ``POST /annotate`` (single-shot or streamed
  NDJSON per design), ``GET /healthz``, ``GET /metrics``, per-request
  timeouts, payload caps, graceful drain-then-shutdown on SIGTERM, and a
  :class:`ThreadedServer` helper for embedding the daemon in synchronous
  programs and tests.
* :mod:`~repro.core.server.metrics` — request/error counters, queue depth,
  a batch-size histogram, p50/p95 latency and uptime behind ``/metrics``.
* :mod:`~repro.core.server.client` — the thin stdlib client used by
  ``python -m repro annotate --remote URL``.
* :mod:`~repro.core.server.wire` — the canonical wire serialisation: floats
  are quantized to a fixed number of significant digits, which makes
  responses byte-identical whether a request was served alone or coalesced
  into someone else's batch (batch composition perturbs raw float64 outputs
  by ~1 ulp).

``benchmarks/test_serve_concurrent_throughput.py`` pins cross-request
micro-batching at >= 2x the throughput of sequential per-request serving,
and ``tests/core/test_server_*.py`` cover the fault-isolation and wire
protocol contracts.
"""

from .app import AnnotationServer, ServerConfig, ThreadedServer, run_server
from .batcher import MicroBatcher, MicroBatcherCore
from .client import ServeClient, ServeError
from .metrics import ServerMetrics
from .wire import WIRE_FLOAT_DIGITS, canonical, dumps_canonical, error_payload

__all__ = [
    "AnnotationServer",
    "MicroBatcher",
    "MicroBatcherCore",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerMetrics",
    "ThreadedServer",
    "WIRE_FLOAT_DIGITS",
    "canonical",
    "dumps_canonical",
    "error_payload",
    "run_server",
]
