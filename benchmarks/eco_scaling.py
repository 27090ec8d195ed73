"""Per-stage timing of incremental ECO re-annotation at two chip sizes.

``AnnotationEngine.reannotate`` is timed stage by stage by wrapping the
production calls it makes:

* ``apply`` — :meth:`repro.netlist.NetlistDelta.apply`, the new revision;
* ``patch`` — :func:`repro.graph.patch_graph`, the new circuit graph;
* ``affected`` — :func:`repro.core.serve.affected_names`;
* ``score`` — :meth:`AnnotationEngine.score_pairs` on the stale pairs;
* ``merge`` — the rest of the call: the record merge and its bookkeeping.

ECO chains run on ``hierarchical_sram`` at chip_eco's size (2 banks, 728
flat devices) and at 11 banks (2942 devices, about 4x), 400 candidate pairs
each, with two kinds of ECO per size:

* ``resize`` — one MOSFET on a candidate net gets a new width (the ECO of
  ``perfbench/chip_eco.py``), an in-place edit that moves no graph row;
* ``add+remove`` — a resistor is added between two candidate nets and a
  different, random device is removed, which renumbers the graph rows.

The chains alternate in blocks, so every chain sees the same machine state,
and the script prints, per size and kind, the median milliseconds per
stage, the median time outside ``score_pairs`` and the garbage collections
per ECO (counted with ``gc.callbacks``).  The engine is an untrained model
of the perfbench checkpoint's shape; weights do not change the cost of any
stage.

Opt-in, not part of the test suite.  From the repository root::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 PYTHONHASHSEED=0 \\
        python benchmarks/eco_scaling.py [--ecos 200] [--blocks 4]
"""

from __future__ import annotations

import argparse
import copy
import gc
import time

import numpy as np

from repro.core import AnnotationEngine, CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core import serve
from repro.graph import netlist_to_graph
from repro.netlist import Mosfet, NetlistDelta, Resistor, hierarchical_sram
from repro.utils import seed_all

SIZES = {"1x": (2, 2, 4), "4x": (11, 2, 4)}  # banks, rows, cols
KINDS = ("resize", "add+remove")
PAIRS = 400
STAGES = ("apply", "patch", "affected", "merge", "score")


class StageClock:
    """Seconds spent in each wrapped call during the current ECO."""

    def __init__(self):
        self.spent = dict.fromkeys(STAGES, 0.0)

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter() - start
        return timed


class GCCounter:
    """Collections per generation, counted through ``gc.callbacks``."""

    def __init__(self):
        self.counts = [0, 0, 0]

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.counts[info["generation"]] += 1


def build_engine() -> AnnotationEngine:
    seed_all(0)
    config = (ExperimentConfig.fast()
              .with_model(dim=32, num_layers=1)
              .with_data(max_nodes_per_hop=None))
    pipeline = CircuitGPSPipeline.from_models(
        config, build_model(config), heads={("edge_regression", "all"): build_model(config)})
    return AnnotationEngine(pipeline, workers=0)


class Chain:
    """One ECO chain on one chip: the current report and its ECO stream."""

    def __init__(self, engine: AnnotationEngine, size: str, kind: str, seed: int):
        banks, rows, cols = SIZES[size]
        flat = hierarchical_sram(banks=banks, rows=rows, cols=cols,
                                 name=f"CHIP_{size}").flatten()
        self.rng = np.random.default_rng(seed)
        pairs = serve.default_candidate_pairs(netlist_to_graph(flat),
                                              max_candidates=PAIRS, rng=self.rng)
        anchors = {name for pair in pairs for name in pair}
        self.anchors = sorted(anchors)
        self.targets = sorted(device.name for device in flat.devices
                              if isinstance(device, Mosfet) and anchors & set(device.nets))
        # add+remove: each device is removed at most once, in a seeded order.
        self.removable = [flat.devices[int(i)].name
                          for i in self.rng.permutation(len(flat.devices))]
        self.kind = kind
        self.added = 0
        self.devices = len(flat.devices)
        self.engine = engine
        self.report = engine.annotate(flat, pairs=pairs, seed=0)
        self.rows: list[dict] = []
        self.gc_counts = [0, 0, 0]

    def delta(self) -> NetlistDelta:
        if self.kind == "add+remove":
            nets = [net for net in self.anchors if self.report.graph.has_node(net)]
            p, n = (str(net) for net in self.rng.choice(nets, size=2, replace=False))
            self.added += 1
            return NetlistDelta(add_devices=[Resistor(f"RECO{self.added}", {"P": p, "N": n})],
                                remove_devices=[self.removable.pop()])
        name = self.targets[int(self.rng.integers(len(self.targets)))]
        (old,) = [device for device in self.report.circuit.devices if device.name == name]
        new = copy.deepcopy(old)
        new.width = old.width * float(self.rng.choice((0.5, 0.75, 1.5, 2.0)))
        return NetlistDelta(add_devices=[new], remove_devices=[name])

    def step(self, clock: StageClock, counter: GCCounter, record: bool) -> None:
        delta = self.delta()
        clock.spent = dict.fromkeys(STAGES, 0.0)
        before = list(counter.counts)
        start = time.perf_counter()
        report = self.engine.reannotate(self.report, delta)
        total = time.perf_counter() - start
        self.report = report  # frees the previous report outside the clock
        if not record:
            return
        row = dict(clock.spent)
        row["merge"] = total - sum(row.values())
        row["outside score"] = total - row["score"]
        row["total"] = total
        self.rows.append(row)
        self.gc_counts = [a + now - then for a, now, then
                          in zip(self.gc_counts, counter.counts, before)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ecos", type=int, default=200, help="timed ECOs per size and kind")
    parser.add_argument("--blocks", type=int, default=4,
                        help="blocks per chain; the chains alternate block by block")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    engine = build_engine()
    clock = StageClock()
    NetlistDelta.apply = clock.wrap("apply", NetlistDelta.apply)
    serve.patch_graph = clock.wrap("patch", serve.patch_graph)
    serve.affected_names = clock.wrap("affected", serve.affected_names)
    engine.score_pairs = clock.wrap("score", engine.score_pairs)
    counter = GCCounter()
    gc.callbacks.append(counter)

    chains = {(size, kind): Chain(engine, size, kind, args.seed)
              for size in SIZES for kind in KINDS}
    for chain in chains.values():
        for _ in range(2):  # warm-up: the first ECO seals every device
            chain.step(clock, counter, record=False)
    per_block = -(-args.ecos // args.blocks)
    for block in range(args.blocks):
        order = list(chains.values())
        for chain in order if block % 2 == 0 else order[::-1]:
            for _ in range(min(per_block, args.ecos - len(chain.rows))):
                chain.step(clock, counter, record=True)
    gc.callbacks.remove(counter)

    columns = STAGES + ("outside score", "total")
    print(f"median ms per ECO, {args.ecos} ECOs per size and kind, seed {args.seed}")
    print(f"{'size':<5}{'kind':<12}{'devices':>8}" + "".join(f"{c:>15}" for c in columns)
          + f"{'gc0/ECO':>9}{'gc1/ECO':>9}{'gc2/ECO':>9}")
    medians = {}
    for (size, kind), chain in chains.items():
        medians[size, kind] = {c: 1e3 * float(np.median([row[c] for row in chain.rows]))
                               for c in columns}
        per_eco = [count / len(chain.rows) for count in chain.gc_counts]
        print(f"{size:<5}{kind:<12}{chain.devices:>8}"
              + "".join(f"{medians[size, kind][c]:>15.3f}" for c in columns)
              + "".join(f"{value:>9.3f}" for value in per_eco))
    for kind in KINDS:
        ratio = medians["4x", kind]["outside score"] / medians["1x", kind]["outside score"]
        print(f"outside score_pairs, 4x / 1x, {kind}: {ratio:.2f}")


if __name__ == "__main__":
    main()
