"""Throughput benchmark: sharded annotation vs. the serial engine loop.

Pins the performance claim of the parallel execution layer
(`repro.core.parallel`): fanning a multi-netlist annotation workload across
four worker processes (:meth:`AnnotationEngine.annotate_many` with
``max_workers=4``) must be at least 2x faster wall-clock than the serial loop
— while producing byte-identical annotation records, so the speedup cannot
come from computing something different.

The parity assertion runs everywhere (workers are exercised even on one
core); the wall-clock assertion needs real hardware parallelism and is
skipped on machines with fewer than four CPUs, where a fork pool can only
timeshare one core.  CI runs on multi-core runners, so the claim stays
continuously verified there; like the serve benchmark, this module is *not*
marked ``benchmark`` and runs with the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model, fork_available
from repro.core.data import PECache
from repro.core.serve import AnnotationEngine, default_candidate_pairs
from repro.graph import netlist_to_graph
from repro.netlist import build_design
from repro.utils import seed_all

MIN_SPEEDUP = 2.0
WORKERS = 4
# Two designs per worker (better load balance than one big shard each) and
# enough candidate pairs that the serial run takes seconds, so the constant
# fork/pool overhead (~tens of ms) cannot mask the speedup.
NUM_DESIGNS = 8
PAIRS_PER_DESIGN = 512
# min-of-3: absorbs noisy-neighbour interference on shared CI runners, where
# the expected headroom is ~2.8x against the 2.0x gate.
REPEATS = 3


def _engine_and_workload():
    """An (untrained) serving pipeline plus a multi-design annotation workload.

    Annotation throughput does not depend on the weights, so the models are
    freshly initialised; each design is a different paper archetype so the
    per-design work is realistic and uneven.
    """
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=32, num_layers=2, pe_hidden=8, dropout=0.0, attention="none")
        .with_data(max_nodes_per_hop=20)
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model}
    )
    names = ["SSRAM", "TIMING_CONTROL", "DIGITAL_CLK_GEN", "ULTRA8T"]
    workload = []
    for index in range(NUM_DESIGNS):
        circuit = build_design(names[index % len(names)], scale=0.5).flatten()
        circuit.name = f"PARBENCH_{index}"
        graph = netlist_to_graph(circuit)
        graph.csr  # build the adjacency outside the timed region, as production does
        pairs = default_candidate_pairs(graph, max_candidates=PAIRS_PER_DESIGN,
                                        rng=np.random.default_rng(index))
        workload.append((graph, pairs))
    return pipeline, workload


def _annotate_all(pipeline, workload, max_workers: int):
    engine = AnnotationEngine(pipeline, batch_size=64, cache=PECache())
    return engine.annotate_many([graph for graph, _ in workload],
                                pairs=[pairs for _, pairs in workload],
                                seed=0, max_workers=max_workers)


def _records_blob(annotations) -> bytes:
    """The deterministic content of a report list (timings excluded)."""
    payload = [{"design": a.design, "records": a.records} for a in annotations]
    return json.dumps(payload, sort_keys=True).encode()


def test_parallel_annotation_matches_serial_byte_identically():
    pipeline, workload = _engine_and_workload()
    serial = _annotate_all(pipeline, workload, max_workers=0)
    parallel = _annotate_all(pipeline, workload, max_workers=WORKERS)
    assert _records_blob(parallel) == _records_blob(serial), (
        "sharded annotation reports differ from the serial reports"
    )


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.skipif((os.cpu_count() or 1) < WORKERS,
                    reason=f"needs >= {WORKERS} CPUs for a wall-clock speedup "
                           "(a fork pool can only timeshare fewer cores)")
def test_parallel_annotation_at_least_2x_faster():
    pipeline, workload = _engine_and_workload()
    _annotate_all(pipeline, workload, max_workers=0)  # warm numpy / import state

    def run(max_workers: int) -> float:
        start = time.perf_counter()
        _annotate_all(pipeline, workload, max_workers=max_workers)
        return time.perf_counter() - start

    serial_seconds = min(run(0) for _ in range(REPEATS))
    parallel_seconds = min(run(WORKERS) for _ in range(REPEATS))
    speedup = serial_seconds / parallel_seconds
    print(f"\nparallel annotation throughput: serial {serial_seconds * 1e3:.0f} ms, "
          f"{WORKERS} workers {parallel_seconds * 1e3:.0f} ms, speedup {speedup:.1f}x "
          f"({NUM_DESIGNS} designs x {PAIRS_PER_DESIGN} pairs)")
    assert speedup >= MIN_SPEEDUP, (
        f"sharded annotation is only {speedup:.1f}x faster than the serial loop "
        f"(required: {MIN_SPEEDUP}x at {WORKERS} workers)"
    )
