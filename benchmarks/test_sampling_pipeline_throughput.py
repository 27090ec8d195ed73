"""Throughput benchmark: the staged sampling pipeline vs. its monolithic peer.

Pins the two performance claims of the datapipe refactor:

1. **Pipeline overhead** — composing the default link recipe out of staged
   ``SamplerStage`` objects must cost at most 10% wall-time over the same
   draw sequence inlined as direct function calls (the monolithic recipe
   the pipeline replaced), judged on the median of per-pair time ratios
   over alternated pairs of runs.
2. **Fanout bounding** — on a banked hierarchical-SRAM design (shared
   bitline/wordline/supply hubs; the worst case for h-hop expansion), a
   per-hop fanout cap of 8 must make 3-hop extraction at least 3x faster
   than unbounded extraction on the injected host.

This module is intentionally *not* marked ``benchmark``: it runs with the
tier-1 suite to keep both claims continuously verified.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core.datasets import DesignData
from repro.graph import (
    balance_links,
    default_link_pipeline,
    extract_enclosing_subgraphs,
    inject_link_edges,
    permute_negative_links,
)
from repro.netlist import hierarchical_sram

MAX_OVERHEAD = 0.10     # staged pipeline vs. inlined monolithic recipe
MIN_FANOUT_SPEEDUP = 3.0
FANOUT_CAP = 8
FANOUT_HOPS = 3
NUM_FANOUT_LINKS = 60
PAIRS = 9
FANOUT_REPEATS = 2


def _alternated_pairs(first, second) -> tuple[list[float], list[float]]:
    """Seconds of ``PAIRS`` alternated pairs of runs of two functions.

    Each pair runs both functions back to back (after a collection, so
    neither inherits the other's garbage), and the order flips from pair to
    pair.  A slow phase of a shared host then lands on both sides of one
    pair's ratio instead of on whichever side ran during it.
    """
    first_times, second_times = [], []
    for pair in range(PAIRS):
        runs = ((first, first_times), (second, second_times))
        for fn, times in (runs if pair % 2 == 0 else runs[::-1]):
            gc.collect()
            times.append(fn())
    return first_times, second_times


def test_pipeline_overhead_within_10_percent():
    """Stage composition must be free: same draws, same work, ~same time."""
    design = DesignData.build("SSRAM", scale=0.5, seed=0)
    graph = design.graph
    graph.csr  # adjacency built outside both timed regions
    kwargs = dict(max_links=300, negative_ratio=1.0, balance=True, hops=1,
                  max_nodes_per_hop=None, inject_links=True)
    pipeline = default_link_pipeline(**kwargs)

    def monolithic_run() -> float:
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        positives = balance_links(list(graph.links), rng=rng)
        if len(positives) > kwargs["max_links"]:
            chosen = rng.choice(len(positives), size=kwargs["max_links"],
                                replace=False)
            positives = [positives[i] for i in chosen]
        negatives = permute_negative_links(positives, graph.num_nodes,
                                           ratio=1.0, rng=rng, strict=False)
        host = inject_link_edges(graph, list(graph.links) + negatives)
        samples = extract_enclosing_subgraphs(host, positives + negatives,
                                              hops=1, add_target_edge=False,
                                              rng=rng)
        order = rng.permutation(len(samples))
        samples = [samples[i] for i in order]
        return time.perf_counter() - start

    def pipeline_run() -> float:
        start = time.perf_counter()
        pipeline.run(graph, rng=np.random.default_rng(0))
        return time.perf_counter() - start

    monolithic_times, pipeline_times = _alternated_pairs(monolithic_run, pipeline_run)
    # The gate is the median of the per-pair ratios; the medians of each
    # side are reported alongside.
    overhead = float(np.median(np.array(pipeline_times) / np.array(monolithic_times))) - 1.0
    monolithic_seconds = float(np.median(monolithic_times))
    pipeline_seconds = float(np.median(pipeline_times))
    print(f"\npipeline overhead: monolithic {monolithic_seconds * 1e3:.0f} ms, "
          f"staged {pipeline_seconds * 1e3:.0f} ms, overhead {overhead * 100:+.1f}%")

    sram = _sram_workload()
    unbounded_seconds, bounded_seconds = _fanout_timings(*sram)
    speedup = unbounded_seconds / bounded_seconds
    print(f"fanout bounding: unbounded {unbounded_seconds * 1e3:.0f} ms, "
          f"cap {FANOUT_CAP} {bounded_seconds * 1e3:.0f} ms, "
          f"speedup {speedup:.1f}x ({NUM_FANOUT_LINKS} links, "
          f"{FANOUT_HOPS} hops)")

    assert overhead <= MAX_OVERHEAD, (
        f"staged pipeline costs {overhead * 100:.1f}% over the monolithic "
        f"recipe (allowed: {MAX_OVERHEAD * 100:.0f}%)"
    )
    assert speedup >= MIN_FANOUT_SPEEDUP, (
        f"fanout-bounded extraction is only {speedup:.1f}x faster than "
        f"unbounded on the SRAM bank (required: {MIN_FANOUT_SPEEDUP}x)"
    )


def _sram_workload():
    """An injected hierarchical-SRAM host plus sample links (hub-heavy)."""
    circuit = hierarchical_sram(banks=2, rows=16, cols=8, name="HSRAM_B2R16C8")
    design = DesignData.from_circuit(circuit, seed=0)
    graph = design.graph
    negatives = permute_negative_links(list(graph.links), graph.num_nodes,
                                       ratio=1.0, rng=np.random.default_rng(0),
                                       strict=False)
    host = inject_link_edges(graph, list(graph.links) + negatives)
    host.csr
    return host, (list(graph.links) + negatives)[:NUM_FANOUT_LINKS]


def _fanout_timings(host, links) -> tuple[float, float]:
    def unbounded_run() -> float:
        start = time.perf_counter()
        extract_enclosing_subgraphs(host, links, hops=FANOUT_HOPS,
                                    add_target_edge=False,
                                    rng=np.random.default_rng(1))
        return time.perf_counter() - start

    def bounded_run() -> float:
        start = time.perf_counter()
        extract_enclosing_subgraphs(host, links, hops=FANOUT_HOPS,
                                    add_target_edge=False,
                                    fanouts=[FANOUT_CAP] * FANOUT_HOPS,
                                    rng=np.random.default_rng(1))
        return time.perf_counter() - start

    return (min(unbounded_run() for _ in range(FANOUT_REPEATS)),
            min(bounded_run() for _ in range(FANOUT_REPEATS)))
