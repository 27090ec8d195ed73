"""Throughput benchmark: CSR-batched sampling vs. the legacy Python path.

Pins the performance claim of the CSR graph kernel: batched enclosing-subgraph
extraction plus DSPD positional-encoding computation must be at least 3x
faster than the original per-node-loop implementation on a bundled design,
under the paper's production sampling setup (links injected into the host
graph, 1-hop neighbourhoods).  Parity of the produced subgraphs and encodings
is asserted on the same workload, so the speedup cannot come from computing
something different.

This module is intentionally *not* marked ``benchmark``: it runs with the
tier-1 suite (a few seconds) to keep the claim continuously verified.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.datasets import DesignData
from repro.graph import (
    compute_pe_batch,
    extract_enclosing_subgraphs,
    inject_link_edges,
    permute_negative_links,
)
from tests.oracles.graph_legacy import legacy_compute_pe, legacy_extract_enclosing_subgraph

MIN_SPEEDUP = 3.0
NUM_LINKS = 500
REPEATS = 3


def _workload():
    """The paper's sampling setup on a bundled design: injected host + links."""
    design = DesignData.build("SSRAM", scale=0.5, seed=0)
    graph = design.graph
    negatives = permute_negative_links(graph.links, graph.num_nodes, ratio=1.0, rng=0,
                                       strict=False)
    host = inject_link_edges(graph, list(graph.links) + negatives)
    host.csr  # build the adjacency outside the timed region, as production does
    links = (list(graph.links) + negatives)[:NUM_LINKS]
    return host, links


def _time(fn) -> float:
    return min(fn() for _ in range(REPEATS))


def test_batched_sampling_at_least_3x_faster():
    host, links = _workload()

    def legacy_run() -> float:
        start = time.perf_counter()
        for link in links:
            subgraph = legacy_extract_enclosing_subgraph(host, link, hops=1,
                                                         add_target_edge=False)
            legacy_compute_pe(subgraph, "dspd")
        return time.perf_counter() - start

    def batched_run() -> float:
        start = time.perf_counter()
        subgraphs = extract_enclosing_subgraphs(host, links, hops=1,
                                                add_target_edge=False)
        compute_pe_batch(subgraphs, "dspd")
        return time.perf_counter() - start

    legacy_seconds = _time(legacy_run)
    batched_seconds = _time(batched_run)
    speedup = legacy_seconds / batched_seconds
    print(f"\nsampling throughput: legacy {legacy_seconds * 1e3:.0f} ms, "
          f"batched {batched_seconds * 1e3:.0f} ms, speedup {speedup:.1f}x "
          f"({len(links)} links)")
    assert speedup >= MIN_SPEEDUP, (
        f"batched sampling is only {speedup:.1f}x faster than the legacy path "
        f"(required: {MIN_SPEEDUP}x)"
    )


def test_batched_results_identical_to_legacy():
    host, links = _workload()
    probe = links[:40]
    batched = extract_enclosing_subgraphs(host, probe, hops=1, add_target_edge=False)
    batched.pe = compute_pe_batch(batched, "dspd")
    for link, new in zip(probe, batched):
        old = legacy_extract_enclosing_subgraph(host, link, hops=1, add_target_edge=False)
        np.testing.assert_array_equal(new.node_ids, old.node_ids)
        np.testing.assert_array_equal(new.edge_index, old.edge_index)
        np.testing.assert_array_equal(new.edge_types, old.edge_types)
        np.testing.assert_allclose(new.pe, legacy_compute_pe(old, "dspd"))
