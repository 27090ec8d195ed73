"""Throughput gate: cross-request micro-batching vs sequential serving.

Pins the performance claim of the annotation service (`repro.core.server`):
coalescing candidate links from *different* concurrent HTTP requests into
shared inference batches must make the daemon at least **2x** faster than
serving the same requests sequentially one-at-a-time (the per-request
serving it replaced, where every request pays its own tiny forward passes
and its own round-trip latency in series).

Both modes are driven by ``benchmarks/serve_loadgen.py`` — an external
stdlib-only load-generator *process* — so the client never shares the GIL
with the daemon's event loop and compute thread, and the sequential
baseline (``concurrency=1``, so each batch holds one request's links) uses
exactly the same transport and daemon configuration as the concurrent
measurement.

Three guarantees are asserted together, so the speedup cannot come from
computing something different:

* correctness — every concurrent response is **byte-identical** to the
  sequential response for the same request, and both equal the local
  engine's annotation serialized through the canonical wire format;
* mechanism — ``/metrics`` must show ``max_batch_observed`` at least twice
  one request's link count, i.e. the big batches really are cross-request;
* throughput — the median, over alternated rounds, of the per-round ratio
  of sequential to concurrent burst wall-clock is >= 2x.  Both daemons stay
  up for every round and each round times one burst of each, in alternating
  order, so a slow phase of a shared host lands on both sides of a ratio
  instead of on one side of the comparison.

Like ``test_serve_throughput.py`` this module is intentionally *not* marked
``benchmark``: it runs with the tier-1 suite to keep the claim continuously
verified.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core.serve import AnnotationEngine, annotation_payload, default_candidate_pairs
from repro.core.server import ServeClient, ServerConfig, ThreadedServer, dumps_canonical
from repro.graph import netlist_to_graph
from repro.netlist import parse_spice, ssram, write_spice
from repro.utils import seed_all

LOADGEN = pathlib.Path(__file__).parent / "serve_loadgen.py"

MIN_SPEEDUP = 2.0
NUM_REQUESTS = 40
PAIRS_PER_REQUEST = 4
ROUNDS = 7  # alternated sequential/concurrent rounds; the gate is their median ratio


def _build_engine() -> AnnotationEngine:
    """A deliberately tiny model: per-request forward overhead dominates,
    which is exactly the regime cross-request batching exists for."""
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=4, dropout=0.0,
                    attention="none")
        .with_data(max_nodes_per_hop=None)  # RNG-free, coalescible extraction
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model})
    return AnnotationEngine(pipeline, workers=0)


def _requests() -> tuple[str, list[dict]]:
    """One small SSRAM design; each request asks for its own slice of pairs."""
    circuit = ssram(rows=2, cols=2).flatten()
    spice = write_spice(circuit)
    graph = netlist_to_graph(parse_spice(spice, name="CONC_BENCH").flatten())
    pool = default_candidate_pairs(
        graph, max_candidates=NUM_REQUESTS * PAIRS_PER_REQUEST,
        rng=np.random.default_rng(0))
    assert len(pool) >= NUM_REQUESTS * PAIRS_PER_REQUEST
    requests = []
    for index in range(NUM_REQUESTS):
        pairs = pool[index * PAIRS_PER_REQUEST:(index + 1) * PAIRS_PER_REQUEST]
        requests.append({"spice": spice, "name": "CONC_BENCH",
                         "pairs": [list(pair) for pair in pairs],
                         "seed": index})
    return spice, requests


def _local_references(engine, spice: str, requests: list[dict]) -> list[str]:
    graph = netlist_to_graph(parse_spice(spice, name="CONC_BENCH").flatten())
    references = []
    for request in requests:
        annotation = engine.annotate(graph, pairs=request["pairs"],
                                     seed=request["seed"])
        references.append(dumps_canonical(annotation_payload(
            annotation.design, annotation.records,
            annotation.threshold)).decode("utf-8"))
    return references


def _drive(url: str, request_file: pathlib.Path, concurrency: int) -> dict:
    """Run the external load generator against ``url`` (a warm-up burst,
    then one timed burst); return its report."""
    completed = subprocess.run(
        [sys.executable, str(LOADGEN), url, str(request_file),
         str(concurrency), "1"],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_cross_request_batching_at_least_2x_sequential(tmp_path):
    engine = _build_engine()
    spice, requests = _requests()
    references = _local_references(engine, spice, requests)

    request_file = tmp_path / "requests.json"
    request_file.write_text(json.dumps(requests))

    # Two daemons of one configuration.  Sequential: one request in flight,
    # so nothing coalesces.  Concurrent: every request in flight, so links
    # that arrive while a batch computes share the next one.
    config = ServerConfig(port=0)
    rounds = []
    with ThreadedServer(engine, config) as sequential_server, \
            ThreadedServer(engine, config) as concurrent_server:
        for index in range(ROUNDS):
            sides = [("sequential", sequential_server, 1),
                     ("concurrent", concurrent_server, NUM_REQUESTS)]
            if index % 2:
                sides.reverse()
            rounds.append({name: _drive(server.url, request_file, concurrency)
                           for name, server, concurrency in sides})
        metrics = ServeClient(concurrent_server.url).metrics()

    # Correctness first: concurrent == sequential == local, byte for byte.
    for reports in rounds:
        sequential, concurrent = reports["sequential"], reports["concurrent"]
        assert sequential["statuses"] == [200] * NUM_REQUESTS
        assert concurrent["statuses"] == [200] * NUM_REQUESTS
        for reference, seq_body, conc_body in zip(
                references, sequential["responses"], concurrent["responses"]):
            assert seq_body.strip() == reference
            assert conc_body.strip() == reference

    # Mechanism: the big batches really span requests.
    max_batch_observed = metrics["max_batch_observed"]
    assert max_batch_observed >= 2 * PAIRS_PER_REQUEST, (
        f"max batch {max_batch_observed} never exceeded one request's "
        f"{PAIRS_PER_REQUEST} links: no cross-request coalescing happened"
    )

    # Throughput: the actual gate, the median of the per-round ratios; the
    # medians of each side are reported alongside.
    sequential_times = np.array([r["sequential"]["elapsed_s"] for r in rounds])
    concurrent_times = np.array([r["concurrent"]["elapsed_s"] for r in rounds])
    ratios = sequential_times / concurrent_times
    speedup = float(np.median(ratios))
    sequential_seconds = float(np.median(sequential_times))
    concurrent_seconds = float(np.median(concurrent_times))
    print(f"\nserve concurrent throughput: sequential "
          f"{sequential_seconds * 1e3:.0f} ms, concurrent "
          f"{concurrent_seconds * 1e3:.0f} ms, median round speedup "
          f"{speedup:.1f}x ({ROUNDS} rounds of {NUM_REQUESTS} requests x "
          f"{PAIRS_PER_REQUEST} links, "
          f"max batch {max_batch_observed}); per round "
          f"{np.round(ratios, 2).tolist()}")
    assert speedup >= MIN_SPEEDUP, (
        f"cross-request batching speedup {speedup:.2f}x is below the "
        f"{MIN_SPEEDUP}x gate"
    )
