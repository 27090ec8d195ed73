"""The annotation daemon: asyncio HTTP front-end over a resident engine.

:class:`AnnotationServer` keeps one loaded
:class:`~repro.core.serve.AnnotationEngine` resident and serves

* ``POST /annotate`` — one or many designs (SPICE text on the wire); with
  ``"stream": true`` multi-design results are streamed incrementally as
  NDJSON lines in design order, one line per finished design.
* ``GET /healthz`` — liveness plus the loaded precision.
* ``GET /metrics`` — the :class:`~repro.core.server.metrics.ServerMetrics`
  snapshot.

All numpy work (parsing aside, extraction, positional encodings, forward
passes) runs on a **single** compute thread, which keeps results
deterministic regardless of request interleaving.  A request's links are
extracted in the engine's serial chunks, exactly as
:meth:`~repro.core.serve.AnnotationEngine.score_pairs` does, then submitted
at once to the shared :class:`~repro.core.server.batcher.MicroBatcher`, so
only the forward passes of different in-flight requests coalesce.
A malformed design fails alone — its error is reported as a
``status: "error"`` entry (the same shape as
:class:`~repro.core.serve.AnnotationFailure`) and never poisons a shared
batch thanks to the batcher's per-item retry.

Shutdown is graceful: SIGTERM (or :meth:`AnnotationServer.drain`) stops the
listener, lets in-flight requests finish within ``drain_timeout_s``, flushes
the batcher and only then joins the compute thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ...graph import netlist_to_graph
from ...netlist import parse_spice
from ...utils.rng import spawn_seeds
from ..serve import (DEFAULT_MAX_CANDIDATES, AnnotationFailure, annotation_payload,
                     default_candidate_pairs)
from .batcher import MicroBatcher
from .metrics import ServerMetrics
from .wire import dumps_canonical, error_payload

logger = logging.getLogger("repro.server")

__all__ = ["AnnotationServer", "ServerConfig", "ThreadedServer", "run_server"]

#: The ``backend`` field of /healthz and /metrics.  numpy is the only compute
#: engine; the field stays so existing clients read the same schema.
_ENGINE = "numpy"

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

@dataclass
class ServerConfig:
    """Tunables of one daemon instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8731
    #: Flush a shared batch at this many pending links ...
    max_batch: int = 256
    #: ... or when the oldest pending link has waited this long (ms).
    batch_window_ms: float = 10.0
    #: Wall-clock budget for one /annotate request before a 504.
    request_timeout_s: float = 60.0
    #: How long drain() waits for in-flight requests at shutdown.
    drain_timeout_s: float = 10.0
    #: Reject request bodies larger than this with a 413.
    max_body_bytes: int = 32 * 1024 * 1024
    #: Micro-batcher backlog bound; submit() applies backpressure beyond it.
    max_queue: int = 8192
    #: Parsed-design LRU capacity (keyed by SPICE text digest).
    design_cache_size: int = 32


class _HttpError(Exception):
    """A protocol-level failure mapped to an HTTP error response."""

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(message)
        self.status = status
        self.kind = kind


class _SendState:
    """Tracks whether response bytes already left, for timeout handling."""

    __slots__ = ("headers_sent",)

    def __init__(self):
        self.headers_sent = False


class AnnotationServer:
    """One resident engine + micro-batcher behind an asyncio HTTP listener."""

    def __init__(self, engine, config: ServerConfig | None = None):
        self.engine = engine
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        # Single compute thread: every numpy op (extraction, PE, forward)
        # is serialized here, making outputs independent of interleaving.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute")
        self._batcher = MicroBatcher(
            self._run_batch,
            max_batch=self.config.max_batch,
            window_s=self.config.batch_window_ms / 1000.0,
            executor=self._executor,
            max_queue=self.config.max_queue,
            metrics=self.metrics,
        )
        self._design_cache: OrderedDict[str, object] = OrderedDict()
        self._server: asyncio.Server | None = None
        self._active: set[asyncio.Task] = set()
        self._draining = False
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """The daemon's base URL (valid once :meth:`start` has bound)."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener and start the batcher (port 0 picks a free one)."""
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info("annotation service listening on %s", self.url)

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._active:
            done, pending = await asyncio.wait(
                set(self._active), timeout=self.config.drain_timeout_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        await self._batcher.stop()
        self._executor.shutdown(wait=True)
        logger.info("annotation service drained (%d requests served)",
                    self.metrics.get("requests_total"))

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        registered = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                registered.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
            logger.info("shutdown signal received; draining")
        finally:
            for sig in registered:
                loop.remove_signal_handler(sig)
        await self.drain()

    # ------------------------------------------------------------------ #
    # Shared-batch inference
    # ------------------------------------------------------------------ #
    def _run_batch(self, samples: list) -> list[tuple[float, float]]:
        """Forward one coalesced batch of ``(block, index)`` samples (from
        one or more requests' blocks) on the compute thread."""
        probs, caps = self.engine.predict_samples(samples)
        return list(zip(np.asarray(probs, dtype=float).tolist(),
                        np.asarray(caps, dtype=float).tolist()))

    def _resolve_design(self, spice: str, name: str | None):
        """Parse SPICE text into a graph, through the LRU design cache.

        ``name`` plays the role the filename plays locally (the design name
        of :func:`~repro.netlist.parse_spice_file`), so a remote annotation
        of a file's text matches the local annotation of the file.  Runs on
        the compute thread, which also serializes cache access.
        """
        digest = hashlib.sha256(
            f"{name or ''}\0{spice}".encode("utf-8")).hexdigest()
        graph = self._design_cache.get(digest)
        if graph is not None:
            self._design_cache.move_to_end(digest)
            self.metrics.inc("design_cache_hits_total")
            return graph
        circuit = parse_spice(spice, name=name or "top").flatten()
        graph = netlist_to_graph(circuit)
        self._design_cache[digest] = graph
        while len(self._design_cache) > self.config.design_cache_size:
            self._design_cache.popitem(last=False)
        return graph

    async def _annotate_design(self, spec: dict, seed: int,
                               threshold: float | None) -> dict:
        """Annotate one design spec; failures become status:"error" dicts."""
        label = str(spec.get("name") or "netlist")
        loop = asyncio.get_running_loop()
        try:
            graph = await loop.run_in_executor(
                self._executor, self._resolve_design, spec["spice"],
                spec.get("name"))
            label = graph.name
            pairs = spec.get("pairs")
            if pairs is None:
                max_candidates = int(spec.get("max_candidates",
                                              DEFAULT_MAX_CANDIDATES))
                pairs = await loop.run_in_executor(
                    self._executor, lambda: default_candidate_pairs(
                        graph, max_candidates=max_candidates,
                        rng=np.random.default_rng(seed)))
            pairs = [tuple(pair) for pair in pairs]
            links = self.engine.links_for_pairs(graph, pairs)
            link_request = self.engine.request_dataset(graph, links, seed=seed)
            # Serial chunks (one hub-subsampling RNG stream each), then one
            # submit, so the request never waits one batch window per chunk.
            # Each link is one batcher item: its chunk's block and position.
            samples = []
            for chunk in self.engine.request_chunks(len(links)):
                block = await loop.run_in_executor(
                    self._executor, self.engine.extract_chunk, link_request, chunk)
                samples.extend((block, index) for index in range(len(block)))
            results = await self._batcher.submit(samples)
            probs = np.array([result[0] for result in results], dtype=float)
            caps = np.array([result[1] for result in results], dtype=float)
            effective = (self.engine.threshold if threshold is None
                         else float(threshold))
            records = self.engine.build_records(pairs, links, probs, caps,
                                                threshold=effective)
            self.metrics.inc("designs_annotated_total")
            return annotation_payload(graph.name, records, effective)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self.metrics.inc_error("design_error")
            error_type = type(exc).__name__
            logger.warning("design %s failed: %s: %s", label, error_type, exc,
                           extra={"error_type": error_type})
            return AnnotationFailure(design=label, error_type=error_type,
                                     message=str(exc)).as_dict()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._dispatch(request, writer)
        except _HttpError as exc:
            self.metrics.inc("responses_error_total")
            self.metrics.inc_error(exc.kind)
            with contextlib.suppress(OSError, ConnectionError):
                await self._send_json(writer, exc.status,
                                      error_payload(exc.kind, str(exc)))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self.metrics.inc_error("client_disconnect")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error serving request")
            self.metrics.inc("responses_error_total")
            self.metrics.inc_error("internal_error")
            with contextlib.suppress(OSError, ConnectionError):
                await self._send_json(writer, 500,
                                      error_payload("internal_error", str(exc)))
        finally:
            self._active.discard(task)
            with contextlib.suppress(OSError, ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _HttpError(400, "bad_request", f"oversized request line: {exc}")
        if not request_line.strip():
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "bad_request", "malformed request line")
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad_request", "invalid Content-Length header")
        if content_length > self.config.max_body_bytes:
            raise _HttpError(
                413, "payload_too_large",
                f"request body of {content_length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit")
        body = await reader.readexactly(content_length) if content_length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    async def _dispatch(self, request, writer: asyncio.StreamWriter) -> None:
        method, path, _headers, body = request
        self.metrics.inc("requests_total")
        if self._draining:
            raise _HttpError(503, "draining",
                             "service is draining and not accepting new requests")
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", f"{method} {path}")
            await self._send_json(writer, 200, self._healthz_payload())
            self.metrics.inc("responses_ok_total")
            return
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed", f"{method} {path}")
            await self._send_json(writer, 200, self.metrics.snapshot(
                queue_depth=self._batcher.core.depth,
                extra=self._metrics_extra()))
            self.metrics.inc("responses_ok_total")
            return
        if path == "/annotate":
            if method != "POST":
                raise _HttpError(405, "method_not_allowed", f"{method} {path}")
            await self._handle_annotate(body, writer)
            return
        raise _HttpError(404, "not_found", f"no route for {path}")

    def _healthz_payload(self) -> dict:
        return {
            "status": "ok" if not self._draining else "draining",
            "uptime_seconds": self.metrics.uptime_seconds,
            "precision": str(self.engine.precision),
            "task": self.engine.task,
            "mode": self.engine.mode,
            "max_batch": self.config.max_batch,
            "batch_window_ms": self.config.batch_window_ms,
            "backend": _ENGINE,
        }

    def _metrics_extra(self) -> dict:
        return {"precision": str(self.engine.precision),
                "pe_cache_hit_rate": float(self.engine.cache.hit_rate),
                "backend": _ENGINE}

    # ------------------------------------------------------------------ #
    # /annotate
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize_annotate(body: bytes):
        """Validate and normalise the request body.

        Returns ``(designs, seed, threshold, stream, single)`` where
        ``single`` marks the one-design shorthand (top-level ``spice``),
        whose response is the bare design payload instead of ``reports``.
        """
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "bad_json", f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad_request", "request body must be a JSON object")
        single = "spice" in payload
        if single:
            design_keys = ("spice", "name", "pairs", "max_candidates")
            designs = [{key: payload[key] for key in design_keys if key in payload}]
        else:
            designs = payload.get("designs")
            if not isinstance(designs, list) or not designs:
                raise _HttpError(400, "bad_request",
                                 "provide top-level 'spice' or a non-empty "
                                 "'designs' list")
        for index, spec in enumerate(designs):
            if not isinstance(spec, dict) or not isinstance(spec.get("spice"), str):
                raise _HttpError(400, "bad_request",
                                 f"designs[{index}] must be an object with a "
                                 "'spice' string")
            pairs = spec.get("pairs")
            if pairs is not None:
                if not isinstance(pairs, list) or any(
                        not isinstance(pair, (list, tuple)) or len(pair) != 2
                        for pair in pairs):
                    raise _HttpError(400, "bad_request",
                                     f"designs[{index}].pairs must be a list "
                                     "of [node_a, node_b] pairs")
        try:
            seed = int(payload.get("seed", 0))
            threshold = payload.get("threshold")
            threshold = None if threshold is None else float(threshold)
        except (TypeError, ValueError):
            raise _HttpError(400, "bad_request", "seed/threshold must be numeric")
        stream = bool(payload.get("stream", False))
        return designs, seed, threshold, stream, single

    async def _handle_annotate(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        designs, seed, threshold, stream, single = self._normalize_annotate(body)
        loop = asyncio.get_running_loop()
        started = loop.time()
        state = _SendState()
        self.metrics.in_flight += 1
        # Per-design seeds mirror annotate_many: SeedSequence-spawned streams
        # by position in the request (byte-parity with the local path).
        design_seeds = spawn_seeds(seed, len(designs))
        tasks = [loop.create_task(self._annotate_design(spec, design_seeds[index],
                                                        threshold))
                 for index, spec in enumerate(designs)]
        try:
            await asyncio.wait_for(
                self._send_annotate_response(tasks, writer, state, stream, single),
                timeout=self.config.request_timeout_s)
            self.metrics.inc("responses_ok_total")
        except asyncio.TimeoutError:
            self.metrics.inc("responses_error_total")
            self.metrics.inc_error("timeout")
            message = (f"request exceeded the {self.config.request_timeout_s}s "
                       "timeout")
            with contextlib.suppress(OSError, ConnectionError):
                if not state.headers_sent:
                    await self._send_json(writer, 504,
                                          error_payload("timeout", message))
                else:
                    await self._send_chunk(writer, dumps_canonical(
                        dict(error_payload("timeout", message), event="error")
                    ) + b"\n")
                    await self._end_chunks(writer)
        finally:
            for task in tasks:
                task.cancel()
            self.metrics.in_flight -= 1
            self.metrics.observe_latency(loop.time() - started)

    async def _send_annotate_response(self, tasks, writer, state: _SendState,
                                      stream: bool, single: bool) -> None:
        if stream:
            # Incremental per-design NDJSON, in request order: each design's
            # line goes out the moment it (and its predecessors) finished.
            await self._send_stream_headers(writer)
            state.headers_sent = True
            for task in tasks:
                result = await task
                await self._send_chunk(writer, dumps_canonical(result) + b"\n")
            await self._send_chunk(writer, dumps_canonical(
                {"event": "done", "num_designs": len(tasks)}) + b"\n")
            await self._end_chunks(writer)
            return
        results = [await task for task in tasks]
        payload = results[0] if single else {"reports": results}
        state.headers_sent = True
        await self._send_json(writer, 200, payload)

    # ------------------------------------------------------------------ #
    # Raw response writers
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int,
                         payload: dict) -> None:
        body = dumps_canonical(payload) + b"\n"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _send_stream_headers(writer: asyncio.StreamWriter) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _send_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _end_chunks(writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()


class ThreadedServer:
    """Run an :class:`AnnotationServer` on a background event-loop thread.

    The synchronous embedding used by tests, benchmarks and notebooks::

        with ThreadedServer(engine, ServerConfig(port=0)) as server:
            client = ServeClient(server.url)
            ...
    """

    def __init__(self, engine, config: ServerConfig | None = None):
        self._engine = engine
        self._config = config or ServerConfig()
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.server: AnnotationServer | None = None

    @property
    def url(self) -> str:
        """The running daemon's base URL."""
        return self.server.url

    def start(self) -> "ThreadedServer":
        """Start the daemon thread; returns once it is accepting requests."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the daemon and join its thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = AnnotationServer(self._engine, self._config)
        try:
            await self.server.start()
        except OSError as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_server(engine, config: ServerConfig | None = None, *,
               announce=None) -> None:
    """Blocking entry point used by ``python -m repro serve``."""

    async def _main() -> None:
        server = AnnotationServer(engine, config)
        await server.start()
        if announce is not None:
            announce(server.url)
        await server.serve_forever()

    asyncio.run(_main())
