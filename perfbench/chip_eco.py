"""chip_eco: sharded annotation of a chip, then incremental ECO re-annotation.

The chip is a ``hierarchical_sram`` handed over as SPICE text, with 400
explicit candidate pairs.  Set-up parses it and runs ``annotate_sharded``
(4 shards over 2 fork workers).  Each op then resizes one MOSFET on a
candidate net (a one-device :class:`~repro.netlist.NetlistDelta`) and calls
``reannotate`` on the previous report, so ECOs chain the way successive
edits do.

The forward pass does almost nothing here: only the few pairs near the
edited device are re-scored, while applying the delta and rebuilding the
graphs touch the whole chip.  This is the control workload for forward-pass
optimisations and the main one for netlist and graph optimisations; it also
covers the sharded scoring path and its memory bound.
"""

from __future__ import annotations

import copy
import json
import time

import numpy as np

import annotate_local
import harness

# 728 flat devices.  Larger chips (1.3k-3.5k devices) made the median ECO
# time swing up to 1.8x between runs on a 2-vCPU VM, as the op's working set
# left the per-core caches; at this size it repeats within a few percent.
BANKS, ROWS, COLS = 2, 2, 4
PAIRS = 400
NUM_SHARDS = 4
WORKERS = 2
CHECKED_OPS = 3
# Devices in the host-speed probe's graph walk (see harness.Pace).
PROBE_WALK = 1000


class Inputs:
    """The seeded chip text, its candidate pairs and the ECO stream."""

    def __init__(self, seed: int, size: str):
        from repro.core import default_candidate_pairs
        from repro.graph import netlist_to_graph
        from repro.netlist import hierarchical_sram, parse_spice, write_spice

        self.rng = np.random.default_rng(seed)
        banks, rows, cols, pairs = (BANKS, ROWS, COLS, PAIRS) if size == "full" \
            else (2, 4, 4, 40)
        self.name = f"CHIP{seed}"
        chip = hierarchical_sram(banks=banks, rows=rows, cols=cols, name=self.name)
        self.text = annotate_local.variant(write_spice(chip), self.rng)
        graph = netlist_to_graph(parse_spice(self.text, name=self.name).flatten())
        self.pairs = [tuple(pair) for pair in default_candidate_pairs(
            graph, max_candidates=pairs, rng=self.rng)]
        self._targets: list[str] | None = None

    def delta(self, flat):
        """Resize one seeded MOSFET of ``flat``: a remove + add of one device.

        Only MOSFETs on a candidate net are edited, so every ECO re-scores a
        few pairs.  Letting some ECOs miss every pair would split op times
        into two modes and leave the median to the share of misses.
        """
        from repro.netlist import Mosfet, NetlistDelta

        if not flat.is_flat:
            flat = flat.flatten()
        devices = {device.name: device for device in flat.devices}
        if self._targets is None:
            anchors = {name for pair in self.pairs for name in pair}
            self._targets = sorted(name for name, device in devices.items()
                                   if isinstance(device, Mosfet) and anchors & set(device.nets))
        old = devices[self._targets[int(self.rng.integers(len(self._targets)))]]
        new = copy.deepcopy(old)
        new.width = old.width * float(self.rng.choice((0.5, 0.75, 1.5, 2.0)))
        return NetlistDelta(add_devices=[new], remove_devices=[old.name])


def sharded_pass(engine, inputs):
    """The set-up a user pays: parse, plan and score the chip in shards."""
    from repro.netlist import parse_spice

    circuit = parse_spice(inputs.text, name=inputs.name)
    return engine.annotate_sharded(circuit, pairs=inputs.pairs, num_shards=NUM_SHARDS,
                                   max_workers=WORKERS)


def wire(records) -> bytes:
    from repro.core.server.wire import dumps_canonical

    return dumps_canonical([dict(r, pair=list(r["pair"])) for r in records])


def op_problem(prev, report, threshold: float) -> str | None:
    """Per-op checks: the reuse summary adds up, reused records are copied
    byte-identically, and every record passes the annotate invariants."""
    summary = report.incremental
    if summary["reused"] + summary["recomputed"] != len(report.records) \
            or summary["dropped"] or summary["added"]:
        return f"inconsistent reuse summary {summary}"
    changed = sum(json.dumps(a) != json.dumps(b)
                  for a, b in zip(prev.records, report.records))
    if changed > summary["recomputed"]:
        return f"{changed} records changed but only {summary['recomputed']} recomputed"
    return annotate_local.records_ok(report.records, len(prev.records), threshold)


def reannotate_traced(engine, tracer, prev, delta, work: list):
    """``engine.reannotate`` spelled out layer by layer, one span per layer."""
    from repro.core import NetlistAnnotation
    from repro.graph import netlist_to_graph

    with tracer.op():
        with tracer.span("netlist.delta_apply_s"):
            old_flat = prev.circuit if prev.circuit.is_flat else prev.circuit.flatten()
            new_flat = delta.apply(old_flat)
        with tracer.span("graph.build_s"):
            new_graph = netlist_to_graph(new_flat)
            old_graph = netlist_to_graph(old_flat, with_stats=False)
            old_graph.csr, new_graph.csr  # built lazily on first use
        with tracer.span("graph.khop_s"):
            changed = set(delta.touched_nets(old_flat)) | set(delta.remove_devices)
            removed = set(delta.remove_devices)
            for device in old_flat.devices:
                if device.name in removed:
                    changed.update(f"{device.name}:{t}" for t in device.terminals)
            for device in delta.add_devices:
                changed.add(device.name)
                changed.update(f"{device.name}:{t}" for t in device.terminals)
            affected: set[str] = set()
            for graph in (old_graph, new_graph):
                anchors = sorted(graph.node_index(n) for n in changed if graph.has_node(n))
                if anchors:
                    reached = graph.csr.k_hop(np.asarray(anchors, dtype=np.int64),
                                              engine.config.data.hops)
                    affected.update(graph.node_names[int(i)] for i in reached)
        with tracer.span("eco.rescore_s"):
            invalidate = getattr(engine.cache, "invalidate_design", None)
            if invalidate is not None:
                invalidate(prev.design)
            records = [dict(r) for r in prev.records]
            stale = [i for i, r in enumerate(records)
                     if r["pair"][0] in affected or r["pair"][1] in affected]
            if stale:
                pairs = [records[i]["pair"] for i in stale]
                links = engine.links_for_pairs(new_graph, pairs)
                dataset = engine.request_dataset(new_graph, links)
                probs, caps = [], []
                for chunk in engine.request_chunks(len(links)):
                    samples = engine.extract_chunk(dataset, chunk)
                    work.extend((s.num_nodes, s.num_edges) for s in samples)
                    chunk_probs, chunk_caps = engine.predict_samples(samples)
                    probs.append(chunk_probs)
                    caps.append(chunk_caps)
                fresh = engine.build_records(pairs, links, np.concatenate(probs),
                                             np.concatenate(caps))
                for position, record in zip(stale, fresh):
                    records[position] = record
    return NetlistAnnotation(design=prev.design, records=records,
                             threshold=engine.threshold, elapsed_seconds=0.0,
                             circuit=new_flat), len(stale)


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> harness.Outcome:
    outcome = harness.Outcome()
    artifact = harness.checkpoint_path()
    inputs = Inputs(seed, size)
    engine = harness.load_engine(artifact)
    if trace:
        return _run_traced(outcome, inputs, engine, artifact, seconds)

    pace = harness.Pace(walk=PROBE_WALK)
    window = harness.Window(lambda: sharded_pass(engine, inputs), seconds, pace)
    report = first = window.result
    for _ in range(2):  # the first ECO also flattens the hierarchical report
        report = engine.reannotate(report, inputs.delta(report.circuit))
    durations, probes, kept = [], [], []
    check_rng = np.random.default_rng([seed, 3])
    window.open()
    while window.running():
        delta = inputs.delta(report.circuit)
        probes.append(pace.probe())
        start = time.perf_counter()
        new = engine.reannotate(report, delta)
        durations.append(time.perf_counter() - start)
        outcome.attempted += 1
        problem = op_problem(report, new, engine.threshold)
        if problem:
            outcome.fail(f"eco {outcome.attempted}: {problem}")
        elif len(kept) < CHECKED_OPS and check_rng.random() < 0.05:
            kept.append(new)
        report = new
    peak = harness.vm_hwm_mb()

    # Sharded == unsharded, and ECO results == a from-scratch annotate, at
    # the wire encoding (batch composition moves float64 outputs by ~1 ulp).
    flat = first.circuit.flatten()
    for label, circuit, records in [("sharded first pass", flat, first.records)] + [
            (f"eco result {i}", r.circuit, r.records) for i, r in enumerate(kept)]:
        scratch = engine.annotate(circuit, pairs=inputs.pairs)
        if wire(scratch.records) != wire(records):
            outcome.fail(f"{label} differs from a from-scratch annotate")
    scaled = pace.calibrate(durations, probes)
    summary = harness.latency_summary(scaled)
    links = [len(inputs.pairs)] * len(durations)
    outcome.metrics.update(
        setup_s=window.setup_s,
        links_per_s=harness.block_rate(links, scaled),
        latency_p50_s=summary["latency_p50_s"],
        latency_p90_s=summary["latency_p90_s"],
        peak_rss_mb=peak,
    )
    outcome.notes.update(ops=len(durations), beyond_p90=summary["beyond_p90"],
                         children_peak_rss_mb=harness.children_peak_rss_mb(),
                         devices=len(flat.devices), checked_ecos=len(kept),
                         wall=pace.wall_notes(window.wall_setup_s, links, durations, probes))
    return outcome


def _run_traced(outcome, inputs, engine, artifact, seconds):
    """Untraced ``reannotate`` on engine A, its traced replica on engine B."""
    from repro.core import plan_shards
    from repro.netlist import parse_spice

    tracer = harness.Tracer()
    traced_engine = harness.load_engine(artifact)
    with tracer.span("netlist.parse_s"):
        circuit = parse_spice(inputs.text, name=inputs.name)
    with tracer.span("shard.plan_s"):
        plan = plan_shards(circuit, num_shards=NUM_SHARDS,
                           hops=traced_engine.config.data.hops)
    with tracer.span("shard.annotate_s"):
        report = traced_engine.annotate_sharded(circuit, pairs=inputs.pairs,
                                                num_shards=NUM_SHARDS, max_workers=WORKERS)
    for _ in range(2):
        delta = inputs.delta(report.circuit)
        engine.reannotate(report, delta)
        report, _ = reannotate_traced(traced_engine, harness.Tracer(), report, delta, [])
    untraced, recomputed, records, work = 0.0, 0, 0, []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        delta = inputs.delta(report.circuit)
        start = time.perf_counter()
        expected = engine.reannotate(report, delta)
        untraced += time.perf_counter() - start
        traced, stale = reannotate_traced(traced_engine, tracer, report, delta, work)
        outcome.attempted += 1
        problem = op_problem(report, expected, engine.threshold)
        if problem:
            outcome.fail(f"eco {outcome.attempted}: {problem}")
        elif json.dumps(traced.records) != json.dumps(expected.records):
            outcome.fail(f"eco {outcome.attempted}: traced replica differs from reannotate")
        recomputed += stale
        records += len(expected.records)
        report = expected
    cache = traced_engine.cache
    outcome.metrics.update(tracer.ledger())
    outcome.metrics.update({
        "shard.count": float(plan.num_shards),
        "shard.children_peak_rss_mb": harness.children_peak_rss_mb(),
        "eco.recomputed_fraction": recomputed / records,
        "data.pe_cache_hit_rate": cache.hits / max(1, cache.hits + cache.misses),
        "trace.overhead": tracer.op_seconds / untraced - 1.0,
    })
    if work:
        outcome.metrics["work.subgraph_nodes_mean"] = float(np.mean([n for n, _ in work]))
        outcome.metrics["work.subgraph_edges_mean"] = float(np.mean([e for _, e in work]))
    outcome.notes.update(traced_ops=tracer.ops, recomputed_pairs=recomputed)
    return outcome
