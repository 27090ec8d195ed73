"""serve_http: the annotation daemon, driven over its wire protocol.

``python -m repro serve CKPT --port 0`` runs as a child process.  This
process is the client: one asyncio loop keeping a *closed* loop over 2
connections (EDA scripts and ``annotate --remote`` wait for each reply
before sending the next).  Requests carry 32 auto candidates each; most
resubmit one of 12 base designs the daemon has already parsed, with a fresh
candidate seed, and every ``NEW_EVERY``-th one uploads a new resized variant.

This is the only workload through the wire, the micro-batcher and the
daemon's design cache.  The requests are small, so per-request overhead is
a real share of their time, and the resubmitted designs make the caches
serve reads.
"""

from __future__ import annotations

import asyncio
import json
import select
import subprocess
import sys
import time
import urllib.request

import numpy as np

import annotate_local
import harness

CANDIDATES = 32
CONNECTIONS = 2
NEW_EVERY = 10
PARITY_CHECKS = 16
SEGMENTS = 16
BOOT_EVERY = 4
BOUNDARY_PROBES = 10
BOOT_TIMEOUT_S = 120.0


class Requests:
    """Seeded request bodies: base-design resubmits and new variants.

    Stratified like ``annotate_local``: requests cycle through the base
    designs in a seeded order, every ``NEW_EVERY``-th one uploads a new
    variant, and each base's candidate seeds repeat from run to run.
    """

    def __init__(self, seed: int, size: str):
        self.rng = np.random.default_rng(seed)
        self.bases = [(f"{label}_s{seed}", annotate_local.variant(text, self.rng))
                      for label, text in annotate_local.base_texts(size, (0.25, 0.4))]
        self.count = 0
        self._uses = [0] * len(self.bases)
        self._order: list[int] = []

    def body(self, base: int, name: str | None = None, text: str | None = None) -> dict:
        """A request for base design ``base`` (or a variant of it)."""
        label, base_text = self.bases[base]
        seed = annotate_local.stratified_seed(base, self._uses[base])
        self._uses[base] += 1
        self.count += 1
        return {"spice": text or base_text, "name": name or label,
                "max_candidates": CANDIDATES, "seed": seed}

    def next(self) -> dict:
        if not self._order:
            self._order = list(self.rng.permutation(len(self.bases)))
        base = self._order.pop()
        if self.count % NEW_EVERY == NEW_EVERY - 1:
            label, text = self.bases[base]
            return self.body(base, f"{label}_new{self.count}",
                             annotate_local.variant(text, self.rng))
        return self.body(base)


# --------------------------------------------------------------------------- #
# Daemon
# --------------------------------------------------------------------------- #
class Daemon:
    """One ``repro serve`` child process; ``boot_s`` is spawn -> /healthz 200."""

    def __init__(self, artifact):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact), "--port", "0"],
            env=harness.pinned_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            self.url = self._announced_url(start + BOOT_TIMEOUT_S)
            while True:
                try:
                    with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                        if reply.status == 200:
                            break
                except OSError:
                    if time.perf_counter() > start + BOOT_TIMEOUT_S:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _announced_url(self, deadline: float) -> str:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on "):
                    return line.split("listening on ", 1)[1].strip()
        raise RuntimeError("daemon did not announce its address")

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as reply:
            return json.loads(reply.read())

    def peak_rss_mb(self) -> float:
        return harness.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------------- #
async def post(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    """One ``POST /annotate`` over a fresh connection (the daemon closes it)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"POST /annotate HTTP/1.1\r\nHost: {host}\r\n"
                      "Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                      ).encode("ascii") + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return status, await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(url: str, requests: Requests, seconds: float,
                      fixed: list | None = None) -> list:
    """``CONNECTIONS`` clients, each sending its next request on a reply.

    Returns ``(body, status, payload, latency_s, finished_at)`` per request,
    in the order
    they were issued; runs ``fixed`` bodies once instead when given.
    """
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    results: list = []
    pending = list(fixed) if fixed is not None else None
    deadline = time.perf_counter() + seconds

    async def client():
        while True:
            if pending is not None:
                if not pending:
                    return
                body = pending.pop(0)
            elif time.perf_counter() >= deadline:
                return
            else:
                body = requests.next()
            raw = json.dumps(body).encode("utf-8")
            slot = len(results)
            results.append(None)
            start = time.perf_counter()
            status, payload = await post(host, int(port), raw)
            done = time.perf_counter()
            results[slot] = (body, status, payload, done - start, done)

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return results


def response_problem(status: int, payload: bytes) -> str | None:
    if status != 200:
        return f"HTTP {status}: {payload[:200]!r}"
    report = json.loads(payload)
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}: {report.get('error')}"
    return annotate_local.records_ok(report["records"], CANDIDATES, report["threshold"])


def local_wire_bytes(engine, body: dict) -> bytes:
    """What the daemon must send for ``body``: local annotate, wire-encoded."""
    from repro.core.serve import annotation_payload
    from repro.core.server.wire import dumps_canonical
    from repro.utils.rng import spawn_seeds

    report = annotate_local.annotate(engine, body["name"], body["spice"],
                                     spawn_seeds(body["seed"], 1)[0], body["max_candidates"])
    return dumps_canonical(annotation_payload(body["name"], report.records,
                                              engine.threshold)) + b"\n"


def _counter_delta(before: dict, after: dict, key: str) -> float:
    return float(after[key] - before[key])


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> harness.Outcome:
    outcome = harness.Outcome()
    artifact = harness.checkpoint_path()
    requests = Requests(seed, size)

    # Set-up: the serving daemon's boot, then one more boot after every
    # BOOT_EVERY-th segment of the timed window (clients idle meanwhile), so
    # the boot times see the same mix of host phases as the requests.
    # Host-speed probes (harness.Pace) run in this process at the segment
    # boundaries, while the daemon idles: before each boot, and on both
    # sides of each segment, whose times are scaled by the mean of the two.
    pace = harness.Pace()
    marks = [pace.probe(BOUNDARY_PROBES)]
    daemon = Daemon(artifact)
    boots, results, segments = [daemon.boot_s], [], []
    try:
        # Warm-up: parse every base design once, then a short closed loop.
        warm = [requests.body(base) for base in range(len(requests.bases))]
        asyncio.run(closed_loop(daemon.url, requests, 0.0, fixed=warm))
        asyncio.run(closed_loop(daemon.url, requests, min(1.0, seconds / 4)))
        before = daemon.metrics()
        marks.append(pace.probe(BOUNDARY_PROBES))
        boot_speeds = [marks[0]]
        for index in range(SEGMENTS):
            start = time.perf_counter()
            segment = asyncio.run(closed_loop(daemon.url, requests, seconds / SEGMENTS))
            segments.append((len(segment), time.perf_counter() - start))
            results += segment
            marks.append(pace.probe(BOUNDARY_PROBES))
            if index % BOOT_EVERY == BOOT_EVERY - 1:
                extra = Daemon(artifact)
                extra.stop()
                boots.append(extra.boot_s)
                boot_speeds.append(marks[-1])
        after = daemon.metrics()
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    latencies, answered = [], []
    for body, status, payload, latency, _ in results:
        outcome.attempted += 1
        latencies.append(latency)
        problem = response_problem(status, payload)
        if problem:
            outcome.fail(f"{body['name']}: {problem}")
        answered.append(problem is None)
    # Links answered per second, as the median over the segments.
    bounds = np.cumsum([0] + [count for count, _ in segments])
    speeds = [(a + b) / 2 for a, b in zip(marks[1:], marks[2:])]
    wall_rates = [sum(answered[lo:hi]) * CANDIDATES / duration
                  for lo, hi, (_, duration) in zip(bounds, bounds[1:], segments)]
    rates = [rate * speed / pace.reference_s for rate, speed in zip(wall_rates, speeds)]
    scaled = [latency * pace.reference_s / speed
              for lo, hi, speed in zip(bounds, bounds[1:], speeds)
              for latency in latencies[lo:hi]]

    # Wire parity on a seeded sample, new uploads included.
    engine = harness.load_engine(artifact)
    check_rng = np.random.default_rng([seed, 2])
    picks = check_rng.choice(len(results), size=min(PARITY_CHECKS, len(results)),
                             replace=False)
    for index in sorted(int(i) for i in picks):
        body, status, payload, _, _ = results[index]
        if status == 200 and local_wire_bytes(engine, body) != payload:
            outcome.fail(f"{body['name']}: response differs from local annotate")

    summary = harness.latency_summary(scaled)
    wall = harness.latency_summary(latencies)
    outcome.notes.update(requests=len(results), beyond_p90=summary["beyond_p90"],
                         parity_checked=len(picks), connections=CONNECTIONS,
                         new_upload_share=1 / NEW_EVERY, wall={
                             "setup_s": float(np.median(boots)),
                             "links_per_s": float(np.median(wall_rates)),
                             "latency_p50_s": wall["latency_p50_s"],
                             "latency_p90_s": wall["latency_p90_s"],
                             "host_speed": pace.reference_s / float(np.mean(marks))})
    if not trace:
        outcome.metrics.update(
            setup_s=float(np.median([boot * pace.reference_s / speed
                                     for boot, speed in zip(boots, boot_speeds)])),
            links_per_s=float(np.median(rates)),
            latency_p50_s=summary["latency_p50_s"],
            latency_p90_s=summary["latency_p90_s"],
            peak_rss_mb=peak,
        )
        return outcome

    served = _counter_delta(before["latency"], after["latency"], "count")
    server_mean = _counter_delta(before["latency"], after["latency"], "sum_seconds") / served
    designs = _counter_delta(before, after, "designs_annotated_total")
    batches = _counter_delta(before, after, "batches_total")
    outcome.metrics.update({
        "server.request_s_mean": server_mean,
        "server.wire_s_mean": float(np.mean(latencies)) - server_mean,
        "server.batch_size_mean": _counter_delta(before, after, "batched_items_total") / batches,
        "server.design_cache_hit_rate":
            _counter_delta(before, after, "design_cache_hits_total") / designs,
        "server.batch_retries_total": _counter_delta(before, after, "batch_retries_total"),
        "server.errors_total": float(sum(after["errors_total"].values())
                                     - sum(before["errors_total"].values())),
        # /metrics gives only a running maximum and a hit rate, not counters
        # that could be diffed, so these two cover the daemon's lifetime,
        # warm-up included (its first parse of every base design misses).
        "server.max_queue_depth": float(after["max_queue_depth"]),
        "data.pe_cache_hit_rate": float(after["pe_cache_hit_rate"]),
    })
    return outcome
