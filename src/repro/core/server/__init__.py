"""Persistent annotation service: the ``repro serve`` daemon.

This package turns the batched :class:`~repro.core.serve.AnnotationEngine`
into a long-lived, stdlib-only (``asyncio`` + sockets) JSON-over-HTTP
service that keeps the loaded pipeline resident and **coalesces the forward
passes of different in-flight requests into shared inference batches**:

* :mod:`~repro.core.server.batcher` — the cross-request micro-batcher
  (:class:`MicroBatcher`): work-conserving, it starts a batch of up to
  ``max_batch`` pending links as soon as the compute worker is free, so
  links that arrive while a batch computes share the next one, and
  demultiplexes per-item results back to their requests.
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
  into someone else's batch (batch composition perturbs the raw float64
  head outputs by ~1 ulp: the trunk is batch-invariant, but the heads'
  one-column output layer runs as a GEMV).

``benchmarks/test_serve_concurrent_throughput.py`` pins cross-request
micro-batching at >= 2x the throughput of sequential per-request serving,
and ``tests/core/test_server_*.py`` cover the fault-isolation and wire
protocol contracts.
"""

from .app import AnnotationServer, ServerConfig, ThreadedServer, run_server
from .batcher import MicroBatcher
from .client import ServeClient, ServeError
from .metrics import ServerMetrics
from .wire import WIRE_FLOAT_DIGITS, canonical, dumps_canonical, error_payload

__all__ = [
    "AnnotationServer",
    "MicroBatcher",
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
