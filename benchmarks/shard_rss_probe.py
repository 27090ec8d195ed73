"""Subprocess probe for the chip-scale sharding memory gate.

``ru_maxrss`` is a process-lifetime high-water mark, so sharded and
unsharded annotation cannot be compared inside one process — whichever runs
first taints the other's reading.  ``test_chip_scale_sharding_bounds_peak_rss``
runs this script twice (``unsharded`` / ``sharded``) and reads one JSON line
from stdout.

The workload is an AMC-style hierarchical SRAM >=100x the bundled SSRAM.
The unsharded path must flatten it (157k devices, ~750k graph nodes) in this
process; the sharded path never does — the planner partitions the
hierarchical description and each shard flattens only its own banks plus a
cell halo, serially in this same process (``max_workers=0``), so the
difference in peak RSS is purely the memory bound, not fork accounting.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core.serve import AnnotationEngine
from repro.core.shard import plan_shards
from repro.netlist import hierarchical_sram
from repro.utils import seed_all

BANKS, ROWS, COLS = 40, 32, 16
NUM_SHARDS = 8
MAX_CANDIDATES = 16


def build_engine() -> AnnotationEngine:
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=8, dropout=0.0,
                    attention="none")
        .with_data(max_nodes_per_hop=20)
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model}
    )
    return AnnotationEngine(pipeline, batch_size=64, workers=0)


def main(mode: str) -> None:
    engine = build_engine()
    circuit = hierarchical_sram(banks=BANKS, rows=ROWS, cols=COLS)
    start = time.perf_counter()
    payload = {"mode": mode}
    if mode == "unsharded":
        flat = circuit.flatten()
        payload["num_devices"] = len(flat.devices)
        annotation = engine.annotate(flat, max_candidates=MAX_CANDIDATES,
                                     seed=0)
    elif mode == "sharded":
        plan = plan_shards(circuit, num_shards=NUM_SHARDS,
                           hops=engine.config.data.hops)
        payload["num_shards"] = plan.num_shards
        payload["strategy"] = plan.strategy
        annotation = engine.annotate_sharded(
            circuit, num_shards=NUM_SHARDS, max_workers=0,
            max_candidates=max(1, MAX_CANDIDATES // NUM_SHARDS), seed=0)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    payload.update({
        "records": len(annotation.records),
        "elapsed_s": round(time.perf_counter() - start, 3),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
    })
    print(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "unsharded")
