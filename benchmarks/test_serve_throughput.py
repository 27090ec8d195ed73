"""Throughput benchmark: batched annotation engine vs. per-link inference.

Pins the performance claim of the serving layer (`repro.core.serve`): the
:class:`AnnotationEngine` — batched CSR subgraph extraction, batched PE
encoding through a shared cache, and batched model forwards over
``batch_size`` chunks of candidate links — must be at least 3x faster than the
per-link loop it replaced (extract one subgraph, encode one PE, run the link
and regression models on a single-sample batch, repeat per candidate pair).

Prediction parity between the two paths is asserted on the same workload, so
the speedup cannot come from computing something different.

This module is intentionally *not* marked ``benchmark``: it runs with the
tier-1 suite (a few seconds) to keep the claim continuously verified.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core.data import PECache, attach_pe_batch
from repro.core.serve import AnnotationEngine, default_candidate_pairs
from repro.graph import collate, extract_enclosing_subgraphs, netlist_to_graph
from repro.netlist import ssram
from repro.nn import no_grad, stable_sigmoid
from repro.utils import seed_all

MIN_SPEEDUP = 3.0
NUM_PAIRS = 256
REPEATS = 3


def _engine_and_workload(max_nodes_per_hop: int | None = 20):
    """An (untrained) serving pipeline plus a parsed netlist workload.

    Throughput does not depend on the weights, so the models are freshly
    initialised — the benchmark measures the serving path, not training.
    """
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=32, num_layers=2, pe_hidden=8, dropout=0.0, attention="none")
        .with_data(max_nodes_per_hop=max_nodes_per_hop)
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model}
    )
    circuit = ssram(rows=8, cols=4).flatten()
    circuit.name = "SERVE_BENCH"
    graph = netlist_to_graph(circuit)
    graph.csr  # build the adjacency outside the timed region, as production does
    pairs = default_candidate_pairs(graph, max_candidates=NUM_PAIRS,
                                    rng=np.random.default_rng(0))
    return pipeline, graph, pairs


def _time(fn) -> float:
    return min(fn() for _ in range(REPEATS))


def _per_link_predict(pipeline, graph, links, cache):
    """The pre-serving-layer inference loop: one candidate at a time, each
    through the batched kernels on a one-element list."""
    config = pipeline.config
    link_model = pipeline.pretrain_result.model
    reg_model = pipeline.finetune_results[("edge_regression", "all")].model
    link_model.eval()
    reg_model.eval()
    probs, caps = [], []
    with no_grad():
        for index, link in enumerate(links):
            [subgraph] = extract_enclosing_subgraphs(
                graph, [link], hops=config.data.hops,
                max_nodes_per_hop=config.data.max_nodes_per_hop,
                rng=np.random.default_rng([0, index]),
            )
            attach_pe_batch([subgraph], link_model.pe_kind, cache=cache)
            batch = collate([subgraph])
            probs.append(float(stable_sigmoid(link_model(batch, task="link").data)[0]))
            caps.append(float(reg_model(batch, task="edge_regression").data[0]))
    return np.array(probs), np.array(caps)


def test_batched_annotation_at_least_3x_faster():
    pipeline, graph, pairs = _engine_and_workload()
    links = AnnotationEngine.links_for_pairs(graph, pairs)

    def per_link_run() -> float:
        start = time.perf_counter()
        _per_link_predict(pipeline, graph, links, cache=PECache())
        return time.perf_counter() - start

    def batched_run() -> float:
        engine = AnnotationEngine(pipeline, batch_size=128, cache=PECache())
        start = time.perf_counter()
        engine.annotate(graph, pairs=pairs)
        return time.perf_counter() - start

    def float32_run() -> float:
        engine = AnnotationEngine(pipeline, batch_size=128, cache=PECache(),
                                  precision="float32")
        start = time.perf_counter()
        engine.annotate(graph, pairs=pairs)
        return time.perf_counter() - start

    per_link_seconds = _time(per_link_run)
    batched_seconds = _time(batched_run)
    float32_seconds = _time(float32_run)
    speedup = per_link_seconds / batched_seconds
    print(f"\nserve throughput: per-link {per_link_seconds * 1e3:.0f} ms, "
          f"batched {batched_seconds * 1e3:.0f} ms, speedup {speedup:.1f}x; "
          f"float32 {float32_seconds * 1e3:.0f} ms "
          f"({batched_seconds / float32_seconds:.2f}x vs float64; "
          f"{len(pairs)} candidate pairs)")
    assert speedup >= MIN_SPEEDUP, (
        f"batched annotation is only {speedup:.1f}x faster than per-link inference "
        f"(required: {MIN_SPEEDUP}x)"
    )


def test_batched_annotation_matches_per_link_predictions():
    # Uncapped neighbourhoods: both paths are then RNG-free and must agree
    # bit-for-bit (hub subsampling draws different streams per path).
    pipeline, graph, pairs = _engine_and_workload(max_nodes_per_hop=None)
    probe = pairs[:48]
    links = AnnotationEngine.links_for_pairs(graph, probe)
    probs, caps = _per_link_predict(pipeline, graph, links, cache=PECache())

    engine = AnnotationEngine(pipeline, batch_size=16, cache=PECache())
    annotation = engine.annotate(graph, pairs=probe)
    engine_probs = np.array([r["coupling_probability"] for r in annotation.records])
    engine_caps = np.array([r["capacitance_normalized"] for r in annotation.records])
    np.testing.assert_allclose(engine_probs, probs, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(engine_caps, np.clip(caps, 0.0, 1.0), rtol=1e-9, atol=1e-12)


def test_shared_cache_accelerates_repeat_annotation():
    """Re-annotating the same netlist must hit the shared PE cache."""
    pipeline, graph, pairs = _engine_and_workload()
    engine = AnnotationEngine(pipeline, batch_size=128, cache=PECache())
    engine.annotate(graph, pairs=pairs)
    misses_after_first = engine.cache.misses
    lookups_first = engine.cache.hits + engine.cache.misses
    engine.annotate(graph, pairs=pairs)
    assert engine.cache.misses == misses_after_first, (
        "second annotation of an identical workload recomputed positional encodings"
    )
    # One lookup per distinct subgraph of a chunk; the second pass hits every one.
    assert engine.cache.hits + engine.cache.misses == 2 * lookups_first
    assert engine.cache.hits >= lookups_first > 0
