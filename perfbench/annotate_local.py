"""annotate_local: the CLI batch path — one in-process engine, serial.

Each op annotates a *distinct* paper-suite design variant, handed to the
program as SPICE text, with 200 auto-drawn candidate links.  The two model
forwards dominate each op; the rest is parse, graph build, extraction + PE,
collate and record building.  Variants never repeat, so the PE cache only
takes writes here (the opposite of ``serve_http``).

The variant mix is stratified: ops cycle through every base design at five
scales in a seeded order, and each base's candidate draws repeat from run to
run, so the seed changes device sizes, names and order but not the shape or
cost profile of the workload.
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

import harness

CANDIDATES = 200
# Five scales per design spread op times out, so the median moves smoothly
# with the machine's speed instead of jumping between per-design modes.
SCALES = (0.2, 0.25, 0.3, 0.35, 0.4)
REPLAY_SHARE = 0.06
SETUP_SAMPLES = 9
_WIDTH = re.compile(r"\bW=(\S+)")


def base_texts(size: str, scales=SCALES) -> list[tuple[str, str]]:
    """(label, SPICE text) of every base design the variants derive from."""
    from repro.netlist import PAPER_DESIGNS, build_design, write_spice

    names = list(PAPER_DESIGNS)
    if size == "tiny":
        names, scales = names[:2], scales[:1]
    return [(f"{name}_{int(scale * 100)}", write_spice(build_design(name, scale=scale)))
            for name in names for scale in scales]


def variant(text: str, rng: np.random.Generator, share: float = 0.1) -> str:
    """A resized copy of ``text``: about ``share`` of the widths rescaled."""
    from repro.netlist import format_si_value, parse_si_value

    def resize(match):
        if rng.random() >= share:
            return match.group(0)
        width = parse_si_value(match.group(1)) * float(rng.choice((0.5, 0.75, 1.5, 2.0)))
        return f"W={format_si_value(width)}"

    return _WIDTH.sub(resize, text)


def stratified_seed(base: int, cycle: int) -> int:
    """Candidate seed of the ``cycle``-th use of base design ``base``.

    One hub-net candidate pads the whole batch's attention, so the candidate
    draw sets much of an op's cost.  Tying the draw to (base, cycle) instead
    of the run seed gives every run the same cost profile; the run seed
    still picks the device sizes, names and order.
    """
    return int(np.random.SeedSequence([base, cycle]).generate_state(1)[0])


class Inputs:
    """Seeded stream of (name, text, candidate seed) annotate requests."""

    def __init__(self, seed: int, size: str):
        self.bases = base_texts(size)
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self._order: list[int] = []

    def next(self) -> tuple[str, str, int]:
        if not self._order:
            self._order = list(self.rng.permutation(len(self.bases)))
        base = self._order.pop()
        label, text = self.bases[base]
        cycle = self.count // len(self.bases)
        self.count += 1
        return (f"{label}_v{self.count}", variant(text, self.rng),
                stratified_seed(base, cycle))


def records_ok(records: list[dict], expected: int, threshold: float) -> str | None:
    """Cheap invariants every annotate result must satisfy (None when fine)."""
    if len(records) != expected:
        return f"{len(records)} records, expected {expected}"
    for record in records:
        prob = record["coupling_probability"]
        cap = record["capacitance_normalized"]
        if not (np.isfinite(prob) and 0.0 <= prob <= 1.0):
            return f"coupling probability {prob!r} outside [0, 1]"
        if not (np.isfinite(cap) and 0.0 <= cap <= 1.0):
            return f"normalized capacitance {cap!r} outside [0, 1]"
        if record["coupled"] != (prob >= threshold):
            return f"coupled flag disagrees with p={prob!r}"
        if not (np.isfinite(record["capacitance_farad"]) and record["capacitance_farad"] >= 0):
            return f"capacitance {record['capacitance_farad']!r} not a finite >= 0 value"
    return None


def annotate(engine, name: str, text: str, seed: int, candidates: int):
    """The measured op: SPICE text in, annotation report out."""
    from repro.netlist import parse_spice

    circuit = parse_spice(text, name=name).flatten()
    return engine.annotate(circuit, max_candidates=candidates, seed=seed)


def annotate_traced(engine, tracer, name: str, text: str, seed: int,
                    candidates: int, work: list) -> list[dict]:
    """``engine.annotate`` spelled out layer by layer, one span per layer."""
    from repro.core import default_candidate_pairs
    from repro.graph import collate, netlist_to_graph
    from repro.netlist import parse_spice
    from repro.nn import no_grad, stable_sigmoid, use_dtype

    with tracer.op():
        with tracer.span("netlist.parse_s"):
            circuit = parse_spice(text, name=name).flatten()
        with tracer.span("graph.build_s"):
            graph = netlist_to_graph(circuit)
            graph.csr  # the CSR adjacency is built lazily on first use
        with tracer.span("serve.candidates_s"):
            pairs = [tuple(pair) for pair in default_candidate_pairs(
                graph, max_candidates=candidates, rng=np.random.default_rng(seed))]
            links = engine.links_for_pairs(graph, pairs)
        with tracer.span("data.extract_s"):
            dataset = engine.request_dataset(graph, links, seed=seed)
        probs, caps = [], []
        for chunk in engine.request_chunks(len(links)):
            with tracer.span("data.extract_s"):
                samples = engine.extract_chunk(dataset, chunk)
            work.extend((s.num_nodes, s.num_edges) for s in samples)
            with tracer.span("graph.collate_s"):
                batch = collate(samples)
            with tracer.span("models.link_forward_s"):
                engine.link_model.eval()
                with no_grad(), use_dtype(engine.precision):
                    probs.append(stable_sigmoid(engine.link_model(batch, task="link").data))
            with tracer.span("models.reg_forward_s"):
                engine.reg_model.eval()
                with no_grad(), use_dtype(engine.precision):
                    caps.append(engine.task_obj.forward(engine.reg_model, batch).data)
        with tracer.span("serve.records_s"):
            records = engine.build_records(pairs, links, np.concatenate(probs),
                                           np.concatenate(caps))
    return records


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> harness.Outcome:
    outcome = harness.Outcome()
    candidates = CANDIDATES if size == "full" else 24
    inputs = Inputs(seed, size)
    artifact = harness.checkpoint_path()
    if trace:
        return _run_traced(outcome, inputs, artifact, seconds, candidates)

    check_rng = np.random.default_rng([seed, 1])
    pace = harness.Pace()
    # A load takes ~40-60 ms, so each set-up sample times four back to back.
    window = harness.Window(lambda: harness.load_engine(artifact), seconds, pace,
                            samples=SETUP_SAMPLES, repeats=4)
    engine = window.result
    for _ in range(3):
        annotate(engine, *inputs.next(), candidates)
    durations, links, probes, replay = [], [], [], []
    window.open()
    while window.running():
        name, text, op_seed = inputs.next()
        probes.append(pace.probe())
        start = time.perf_counter()
        report = annotate(engine, name, text, op_seed, candidates)
        durations.append(time.perf_counter() - start)
        links.append(len(report.records))
        outcome.attempted += 1
        problem = records_ok(report.records, candidates, engine.threshold)
        if problem:
            outcome.fail(f"{name}: {problem}")
        elif check_rng.random() < REPLAY_SHARE or len(durations) == 1:
            replay.append((name, text, op_seed, json.dumps(report.records)))
    peak = harness.vm_hwm_mb()

    # A seeded sample of ops replayed on a fresh engine must match exactly.
    fresh = harness.load_engine(artifact)
    for name, text, op_seed, expected in replay:
        again = annotate(fresh, name, text, op_seed, candidates)
        if json.dumps(again.records) != expected:
            outcome.fail(f"{name}: replay on a fresh engine differs")
    scaled = pace.calibrate(durations, probes)
    summary = harness.latency_summary(scaled)
    outcome.metrics.update(
        setup_s=window.setup_s,
        links_per_s=harness.block_rate(links, scaled),
        latency_p50_s=summary["latency_p50_s"],
        latency_p90_s=summary["latency_p90_s"],
        peak_rss_mb=peak,
    )
    outcome.notes.update(ops=len(durations), replayed=len(replay),
                         beyond_p90=summary["beyond_p90"],
                         wall=pace.wall_notes(window.wall_setup_s, links, durations, probes))
    return outcome


def _run_traced(outcome, inputs, artifact, seconds, candidates):
    """Alternate an untraced op on engine A with its traced replica on engine B.

    Both engines see the same request sequence, so their PE caches stay in
    the same state and the replica must reproduce A's records exactly.
    """
    tracer = harness.Tracer()
    engine = harness.load_engine(artifact)
    with tracer.span("setup.load_s"):
        traced_engine = harness.load_engine(artifact)
    work: list = []
    for _ in range(2):
        request = inputs.next()
        annotate(engine, *request, candidates)
        annotate_traced(traced_engine, harness.Tracer(), *request, candidates, [])
    untraced = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        name, text, op_seed = request = inputs.next()
        start = time.perf_counter()
        report = annotate(engine, name, text, op_seed, candidates)
        untraced += time.perf_counter() - start
        records = annotate_traced(traced_engine, tracer, *request, candidates, work)
        outcome.attempted += 1
        problem = records_ok(report.records, candidates, engine.threshold)
        if problem:
            outcome.fail(f"{name}: {problem}")
        elif json.dumps(records) != json.dumps(report.records):
            outcome.fail(f"{name}: traced replica differs from engine.annotate")
    cache = traced_engine.cache
    outcome.metrics.update(tracer.ledger())
    outcome.metrics.update({
        "data.pe_cache_hit_rate": cache.hits / max(1, cache.hits + cache.misses),
        "work.subgraph_nodes_mean": float(np.mean([n for n, _ in work])),
        "work.subgraph_edges_mean": float(np.mean([e for _, e in work])),
        "trace.overhead": tracer.op_seconds / untraced - 1.0,
    })
    outcome.notes.update(traced_ops=tracer.ops)
    return outcome
