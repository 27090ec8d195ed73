"""Train-step throughput: segment-vectorized model core vs. per-graph loops.

Pins the performance claim of PR 4 (the segment-ops engine in
:mod:`repro.nn.functional`): a full CircuitGPS training step — forward,
backward, gradient clipping and the Adam update — at **batch size 32** must be
at least 2x faster with the vectorized attention core than with the per-graph
(and, for the Performer, per-head) Python loops it replaced.  The loop
implementations are kept verbatim in ``tests/oracles/nn_legacy.py`` and swapped into
an identically-weighted model, so both paths train the same network on the
same batch.

The workload isolates the rewritten hot path the way the paper's ablations do
(Tables III/VII include attention-only GPS rows): ``mpnn="none"`` with the two
attention kernels, over 32 enclosing subgraphs of realistic 1-hop size
(6-14 nodes).  Output parity between the two paths is asserted on the same
batch, so the speedup cannot come from computing something different.

This module is intentionally *not* marked ``benchmark``: it runs with the
tier-1 suite (a few seconds) to keep the claim continuously verified.  A
larger-scale variant rides in the opt-in ``-m benchmark`` suite below.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.batch import SubgraphBatch
from repro.models import CircuitGPS
from repro.nn import Adam, bce_with_logits, clip_grad_norm, no_grad
from tests.oracles.nn_legacy import LoopMultiHeadSelfAttention, LoopPerformerAttention

MIN_COMBINED_SPEEDUP = 2.0   # the PR-4 gate, over both attention kernels
MIN_SINGLE_SPEEDUP = 1.3     # per-kernel sanity floor (perf ~5x, attn ~2x)
BATCH_SIZE = 32
STEPS = 3
REPEATS = 2


def random_subgraph_batch(rng: np.random.Generator, num_graphs: int = BATCH_SIZE,
                          min_nodes: int = 6, max_nodes: int = 14,
                          pe_dim: int = 10, stats_dim: int = 13) -> SubgraphBatch:
    """A synthetic disjoint-union batch shaped like sampled 1-hop subgraphs."""
    node_types, edges, edge_types, batch_vec = [], [], [], []
    anchors, pe, stats = [], [], []
    offset = 0
    for graph_id in range(num_graphs):
        n = int(rng.integers(min_nodes, max_nodes))
        m = 2 * n
        node_types.append(rng.integers(0, 3, size=n))
        edges.append(rng.integers(0, n, size=(2, m)) + offset)
        edge_types.append(rng.integers(0, 5, size=m))
        batch_vec.append(np.full(n, graph_id, dtype=np.int64))
        anchors.append([offset, offset + 1])
        pe.append(rng.normal(size=(n, pe_dim)))
        stats.append(rng.normal(size=(n, stats_dim)))
        offset += n
    return SubgraphBatch(
        node_types=np.concatenate(node_types),
        edge_index=np.concatenate(edges, axis=1),
        edge_types=np.concatenate(edge_types),
        batch=np.concatenate(batch_vec),
        anchors=np.array(anchors, dtype=np.int64),
        pe=np.concatenate(pe, axis=0),
        node_stats=np.concatenate(stats, axis=0),
        labels=rng.integers(0, 2, size=num_graphs).astype(np.float64),
        targets=rng.random(num_graphs),
        link_types=np.zeros(num_graphs, dtype=np.int64),
    )


def build_model(attention: str, loop: bool, dim: int = 64, num_layers: int = 3,
                num_heads: int = 4) -> CircuitGPS:
    """A CircuitGPS model; with ``loop=True`` the attention modules are
    replaced by the identically-weighted per-graph loop implementations."""
    model = CircuitGPS(dim=dim, num_layers=num_layers, pe_kind="dspd", mpnn="none",
                       attention=attention, num_heads=num_heads, dropout=0.0, rng=0)
    if loop:
        for layer in model.layers:
            original = layer.attention
            if attention == "transformer":
                swap = LoopMultiHeadSelfAttention(dim, num_heads=num_heads, rng=0)
            else:
                swap = LoopPerformerAttention(dim, num_heads=num_heads,
                                              num_features=original.num_features, rng=0)
            swap.load_state_dict(original.state_dict())
            if hasattr(original, "projection"):
                swap.projection = original.projection
            layer.attention = swap
    return model


def time_train_steps(model: CircuitGPS, batch: SubgraphBatch, steps: int = STEPS) -> float:
    """Seconds per full train step (forward + backward + clip + Adam)."""
    optimizer = Adam([p for p in model.parameters() if p.requires_grad], lr=1e-3)
    model.train()
    start = time.perf_counter()
    for _ in range(steps):
        loss = bce_with_logits(model(batch, task="link"), batch.labels)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(optimizer.parameters, 1.0)
        optimizer.step()
    return (time.perf_counter() - start) / steps


def _measure(batch: SubgraphBatch) -> dict[str, tuple[float, float]]:
    timings = {}
    for attention in ("transformer", "performer"):
        vec = min(time_train_steps(build_model(attention, loop=False), batch)
                  for _ in range(REPEATS))
        loop = min(time_train_steps(build_model(attention, loop=True), batch)
                   for _ in range(REPEATS))
        timings[attention] = (loop, vec)
    return timings


def test_vectorized_train_step_at_least_2x_faster():
    batch = random_subgraph_batch(np.random.default_rng(0))
    timings = _measure(batch)
    loop_total = sum(loop for loop, _ in timings.values())
    vec_total = sum(vec for _, vec in timings.values())
    combined = loop_total / vec_total
    lines = ", ".join(
        f"{name}: loop {loop * 1e3:.0f} ms vs vectorized {vec * 1e3:.0f} ms "
        f"({loop / vec:.1f}x)" for name, (loop, vec) in timings.items()
    )
    print(f"\ntrain throughput (batch {BATCH_SIZE}): {lines}; combined {combined:.1f}x")
    for name, (loop, vec) in timings.items():
        assert loop / vec >= MIN_SINGLE_SPEEDUP, (
            f"{name} train step is only {loop / vec:.2f}x faster than the "
            f"per-graph loop (floor: {MIN_SINGLE_SPEEDUP}x)"
        )
    assert combined >= MIN_COMBINED_SPEEDUP, (
        f"vectorized training is only {combined:.2f}x faster than the per-graph "
        f"loop baseline over both attention kernels (required: {MIN_COMBINED_SPEEDUP}x)"
    )


def test_vectorized_and_loop_models_agree():
    """The timed models must compute the same function (≤ 1e-8)."""
    batch = random_subgraph_batch(np.random.default_rng(1))
    for attention in ("transformer", "performer"):
        vectorized = build_model(attention, loop=False)
        looped = build_model(attention, loop=True)
        looped.load_state_dict(vectorized.state_dict())
        for layer_v, layer_l in zip(vectorized.layers, looped.layers):
            if hasattr(layer_v.attention, "projection"):
                layer_l.attention.projection = layer_v.attention.projection
        vectorized.eval()
        looped.eval()
        with no_grad():
            out_v = vectorized(batch, task="link").data
            out_l = looped(batch, task="link").data
        np.testing.assert_allclose(out_v, out_l, atol=1e-8, rtol=1e-8)


@pytest.mark.benchmark
def test_train_throughput_at_scale():
    """Opt-in (``-m benchmark``) variant on larger subgraphs and more steps."""
    batch = random_subgraph_batch(np.random.default_rng(2), num_graphs=BATCH_SIZE,
                                  min_nodes=12, max_nodes=32)
    timings = _measure(batch)
    loop_total = sum(loop for loop, _ in timings.values())
    vec_total = sum(vec for _, vec in timings.values())
    print(f"\ntrain throughput at scale: combined {loop_total / vec_total:.1f}x")
    assert loop_total / vec_total >= 1.5
