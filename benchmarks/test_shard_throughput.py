"""Sharded + incremental annotation gates: parity, ECO speedup, peak RSS.

Three claims of the chip-scale annotation layer are pinned here:

* **Wire parity** — with explicit pairs and deterministic extraction, the
  merged records of :meth:`AnnotationEngine.annotate_sharded` are identical
  to the unsharded engine at the canonical wire encoding
  (:func:`repro.core.server.wire.dumps_canonical`), for both the hierarchy
  and the flat partition strategies.
* **Incremental speedup** — re-annotating after an ECO delta touching <=1%
  of the devices (:meth:`AnnotationEngine.reannotate`) is at least 5x faster
  than a full re-annotation, while carrying every unaffected record over
  byte-identically.
* **Memory bound** — an AMC-style hierarchical SRAM more than 100x the
  bundled SSRAM (>=136k devices) annotates sharded under a peak-RSS cap of
  half the unsharded peak, which the unsharded path exceeds by definition.
  Peak RSS (``ru_maxrss``) is monotonic per process, so each mode runs in
  its own subprocess (``benchmarks/shard_rss_probe.py``).

The parity and speedup gates are cheap and run with the tier-1 suite; the
chip-scale RSS gate builds a ~157k-device design and is marked
``benchmark`` (opt in with ``-m benchmark``).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core.serve import AnnotationEngine, default_candidate_pairs
from repro.core.server import dumps_canonical
from repro.graph import netlist_to_graph
from repro.netlist import NetlistDelta, Resistor, ssram
from repro.utils import seed_all

MIN_INCREMENTAL_SPEEDUP = 5.0
RSS_CAP_FRACTION = 0.5          # sharded must fit in half the unsharded peak
MIN_CHIP_DEVICES = 136_000      # >= 100x the bundled 1360-device SSRAM
REPEATS = 2
PROBE = pathlib.Path(__file__).resolve().parent / "shard_rss_probe.py"


def _engine(deterministic: bool) -> AnnotationEngine:
    """An (untrained) serving engine; weights do not matter for these gates."""
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=32, num_layers=2, pe_hidden=8, dropout=0.0,
                    attention="none")
        .with_data(max_nodes_per_hop=None if deterministic else 20)
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model}
    )
    return AnnotationEngine(pipeline, batch_size=64, workers=0)


def _canonical(records) -> bytes:
    return dumps_canonical(records)


def test_sharded_annotation_wire_parity():
    """Hierarchy and flat sharding both reproduce the unsharded wire bytes."""
    engine = _engine(deterministic=True)
    hier = ssram(rows=8, cols=4)
    flat = hier.flatten()
    graph = netlist_to_graph(flat)
    pairs = default_candidate_pairs(graph, max_candidates=96,
                                    rng=np.random.default_rng(1))
    reference = engine.annotate(graph, pairs=pairs, seed=0)
    for source, num_shards in ((hier, 3), (flat, 4)):
        sharded = engine.annotate_sharded(source, pairs=pairs,
                                          num_shards=num_shards, seed=0)
        assert _canonical(sharded.records) == _canonical(reference.records), (
            f"sharded ({num_shards} shards, "
            f"{'hierarchy' if source is hier else 'flat'}) records differ "
            "from the unsharded reference"
        )


def test_incremental_reannotation_at_least_5x_faster():
    """A <=1% ECO delta re-annotates >=5x faster than a full re-annotation."""
    engine = _engine(deterministic=False)
    circuit = ssram(rows=16, cols=8).flatten()
    graph = netlist_to_graph(circuit)
    pairs = default_candidate_pairs(graph, max_candidates=1024,
                                    rng=np.random.default_rng(2))
    prev = engine.annotate(circuit, pairs=pairs, seed=0)
    # One edited device out of 1360 (0.07% of the design).
    victim = circuit.devices[0]
    delta = NetlistDelta(
        add_devices=[Resistor("RECO",
                              {"P": list(victim.terminals.values())[0],
                               "N": "eco_new"}, resistance=1e3)],
        remove_devices=[victim.name],
    )
    new_circuit = delta.apply(circuit)

    def full_seconds() -> float:
        engine.cache.clear()
        start = time.perf_counter()
        engine.annotate(new_circuit, pairs=pairs, seed=0)
        return time.perf_counter() - start

    def incremental() -> tuple[float, object]:
        engine.cache.clear()
        start = time.perf_counter()
        result = engine.reannotate(prev, delta, seed=0)
        return time.perf_counter() - start, result

    full = min(full_seconds() for _ in range(REPEATS))
    timed = [incremental() for _ in range(REPEATS)]
    fast, result = min(timed, key=lambda item: item[0])
    summary = result.incremental
    assert summary["recomputed"] >= 1
    assert summary["recomputed"] <= len(pairs) * 0.25, (
        "the delta invalidated an implausibly large share of the pairs"
    )
    # Unaffected records carry over byte-identically.
    by_pair = {tuple(r["pair"]): r for r in prev.records}
    identical = sum(1 for r in result.records
                    if r == by_pair.get(tuple(r["pair"])))
    assert identical >= summary["reused"]
    speedup = full / fast
    print(f"\nincremental re-annotation: full {full * 1e3:.0f} ms, "
          f"incremental {fast * 1e3:.0f} ms, speedup {speedup:.1f}x "
          f"({summary['recomputed']}/{len(pairs)} pairs recomputed)")
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental re-annotation only {speedup:.1f}x faster than full "
        f"(gate: {MIN_INCREMENTAL_SPEEDUP:.0f}x)"
    )


def _run_probe(mode: str) -> dict:
    env = dict(os.environ)
    root = PROBE.parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, str(PROBE), mode], env=env,
                          cwd=root, capture_output=True, text=True,
                          timeout=1800)
    assert proc.returncode == 0, (
        f"probe {mode!r} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.benchmark
def test_chip_scale_sharding_bounds_peak_rss():
    """A >=136k-device AMC-style SRAM annotates sharded in half the
    unsharded peak RSS — the memory cap unsharded annotation exceeds."""
    unsharded = _run_probe("unsharded")
    sharded = _run_probe("sharded")
    assert unsharded["num_devices"] >= MIN_CHIP_DEVICES
    assert sharded["records"] > 0 and unsharded["records"] > 0
    cap_mb = unsharded["peak_rss_mb"] * RSS_CAP_FRACTION
    print(f"\nchip-scale RSS: unsharded {unsharded['peak_rss_mb']:.0f} MiB, "
          f"sharded {sharded['peak_rss_mb']:.0f} MiB "
          f"(cap {cap_mb:.0f} MiB, {unsharded['num_devices']} devices)")
    assert sharded["peak_rss_mb"] <= cap_mb, (
        f"sharded annotation peaked at {sharded['peak_rss_mb']:.0f} MiB, "
        f"over the {cap_mb:.0f} MiB cap (unsharded: "
        f"{unsharded['peak_rss_mb']:.0f} MiB)"
    )
