"""Dataset construction for the three tasks of the paper.

The flow mirrors Section IV:

1. Build (synthetic) designs, place them and extract parasitics
   (:class:`DesignData` wraps one design end-to-end).
2. Normalise the circuit statistics ``X_C`` and the capacitance targets to
   ``[0, 1]`` using *training-set* statistics (zero-shot test designs are
   normalised with the training normalisers).
3. Sample enclosing subgraphs per task:

   * **link prediction** — balanced positive/negative links, 1-hop subgraphs,
   * **edge regression**  — the same sampling, but the target is the coupling
     capacitance (negatives get zero), values filtered to
     ``cap_min <= C <= cap_max``,
   * **node regression**  — 2-hop subgraphs around net/pin nodes, target is
     the node's ground capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import (
    NODE_DEVICE,
    CircuitGraph,
    Subgraph,
    netlist_to_graph,
)
from .data import attach_pe_batch
from ..netlist import Circuit, ParasiticReport, Placement, build_design, extract_parasitics, place_circuit
from ..netlist.generators import PAPER_DESIGNS, TEST_DESIGNS, TRAIN_DESIGNS
from ..utils.rng import get_rng
from .config import DataConfig

__all__ = [
    "CapacitanceNormalizer",
    "StatsNormalizer",
    "DesignData",
    "load_design_suite",
    "build_link_samples",
    "build_edge_regression_samples",
    "build_node_regression_samples",
    "TRAIN_DESIGNS",
    "TEST_DESIGNS",
]


# --------------------------------------------------------------------------- #
# Normalisers
# --------------------------------------------------------------------------- #
@dataclass
class CapacitanceNormalizer:
    """Log-scale min-max normalisation of capacitances to [0, 1].

    The paper keeps couplings with ``1e-21 F <= C <= 1e-15 F`` and normalises
    the values to [0, 1]; because the values span six decades we normalise in
    log10 space, which keeps the regression targets well conditioned.  Zero
    capacitance (injected negatives) maps to exactly 0.
    """

    cap_min: float = 1e-21
    cap_max: float = 1e-15

    def __post_init__(self):
        if self.cap_min <= 0 or self.cap_max <= self.cap_min:
            raise ValueError("cap_min must be positive and smaller than cap_max")
        self._log_min = np.log10(self.cap_min)
        self._log_max = np.log10(self.cap_max)

    def in_range(self, value: float) -> bool:
        """Whether ``value`` lies inside the paper's kept capacitance range."""
        return self.cap_min <= value <= self.cap_max

    def normalize(self, value: float) -> float:
        """Map a capacitance in farads to [0, 1] (log10 min-max)."""
        if value <= 0:
            return 0.0
        logged = np.clip(np.log10(value), self._log_min, self._log_max)
        return float((logged - self._log_min) / (self._log_max - self._log_min))

    def denormalize(self, value: float) -> float:
        """Map a normalised value in [0, 1] back to farads."""
        if value <= 0:
            return 0.0
        logged = self._log_min + float(value) * (self._log_max - self._log_min)
        return float(10.0 ** logged)


@dataclass
class StatsNormalizer:
    """Min-max normaliser for the circuit-statistics matrix ``X_C``."""

    minimum: np.ndarray
    value_range: np.ndarray

    @classmethod
    def fit(cls, stats_matrices: list[np.ndarray], eps: float = 1e-9) -> "StatsNormalizer":
        """Fit per-column min/range over a list of ``X_C`` matrices."""
        stacked = np.concatenate(stats_matrices, axis=0)
        minimum = stacked.min(axis=0)
        value_range = stacked.max(axis=0) - minimum
        value_range = np.where(value_range < eps, 1.0, value_range)
        return cls(minimum=minimum, value_range=value_range)

    def transform(self, stats: np.ndarray) -> np.ndarray:
        """Min-max normalise a statistics matrix to [0, 1]."""
        return np.clip((stats - self.minimum) / self.value_range, 0.0, 1.0)


# --------------------------------------------------------------------------- #
# Designs
# --------------------------------------------------------------------------- #
@dataclass
class DesignData:
    """One design carried through the full pipeline: netlist -> graph + labels."""

    name: str
    circuit: Circuit
    placement: Placement
    parasitics: ParasiticReport
    graph: CircuitGraph
    split: str = "train"
    raw_stats: np.ndarray | None = None

    @classmethod
    def build(cls, name: str, scale: float = 0.5, seed: int = 0) -> "DesignData":
        """Generate, place and extract one of the paper's designs."""
        circuit = build_design(name, scale=scale).flatten()
        placement = place_circuit(circuit, rng=seed)
        parasitics = extract_parasitics(placement, rng=seed + 1)
        graph = netlist_to_graph(circuit, parasitics)
        split = PAPER_DESIGNS[name].split if name in PAPER_DESIGNS else "train"
        return cls(name=name, circuit=circuit, placement=placement, parasitics=parasitics,
                   graph=graph, split=split, raw_stats=graph.node_stats.copy())

    @classmethod
    def from_circuit(cls, circuit: Circuit, seed: int = 0, split: str = "train") -> "DesignData":
        """Run the pipeline on a user-provided circuit (e.g. a parsed SPICE file)."""
        flat = circuit if circuit.is_flat else circuit.flatten()
        placement = place_circuit(flat, rng=seed)
        parasitics = extract_parasitics(placement, rng=seed + 1)
        graph = netlist_to_graph(flat, parasitics)
        return cls(name=flat.name, circuit=flat, placement=placement, parasitics=parasitics,
                   graph=graph, split=split, raw_stats=graph.node_stats.copy())

    def apply_stats_normalizer(self, normalizer: StatsNormalizer) -> None:
        """Overwrite the graph's ``X_C`` with its normalised version."""
        if self.raw_stats is None:
            self.raw_stats = self.graph.node_stats.copy()
        self.graph.node_stats = normalizer.transform(self.raw_stats)


_SUITE_CACHE: dict[tuple, dict[str, DesignData]] = {}


def load_design_suite(scale: float = 0.5, seed: int = 0, names: list[str] | None = None,
                      normalize_stats: bool = True, use_cache: bool = True
                      ) -> dict[str, DesignData]:
    """Build (and cache) the six-design suite of Table IV.

    The ``X_C`` matrices of every design are normalised with statistics fitted
    on the *training* designs only, mirroring the paper's zero-shot protocol.
    """
    names = list(names) if names is not None else list(PAPER_DESIGNS)
    key = (round(float(scale), 4), int(seed), tuple(sorted(names)), bool(normalize_stats))
    if use_cache and key in _SUITE_CACHE:
        return _SUITE_CACHE[key]
    designs = {name: DesignData.build(name, scale=scale, seed=seed) for name in names}
    if normalize_stats:
        train_stats = [d.raw_stats for d in designs.values() if d.split == "train"]
        if not train_stats:
            train_stats = [d.raw_stats for d in designs.values()]
        normalizer = StatsNormalizer.fit(train_stats)
        for design in designs.values():
            design.apply_stats_normalizer(normalizer)
    if use_cache:
        _SUITE_CACHE[key] = designs
    return designs


# --------------------------------------------------------------------------- #
# Link-prediction samples
# --------------------------------------------------------------------------- #
def _link_pipeline_for(config: DataConfig, sampling=None):
    """The sampling pipeline a link-level builder should run.

    ``sampling`` (a pipeline / registered name / stage-entry list) wins;
    otherwise the legacy recipe is assembled from the :class:`DataConfig`
    knobs — byte-identical to the historical monolithic sampler.
    """
    from ..graph.datapipe import as_pipeline, default_link_pipeline

    if sampling is not None:
        return as_pipeline(sampling)
    return default_link_pipeline(
        max_links=config.max_links_per_design,
        negative_ratio=config.negative_ratio,
        balance=config.balance,
        hops=config.hops,
        max_nodes_per_hop=config.max_nodes_per_hop,
        inject_links=config.inject_links,
    )


def build_link_samples(design: DesignData, config: DataConfig = DataConfig(),
                       pe_kind: str = "dspd", rng=None,
                       sampling=None) -> list[Subgraph]:
    """Balanced link-prediction subgraphs for one design (positives + negatives).

    A thin configuration of the staged sampling pipeline
    (:mod:`repro.graph.datapipe`): ``sampling`` overrides the default recipe
    with any pipeline spec.
    """
    rng = get_rng(rng if rng is not None else config.seed)
    pipeline = _link_pipeline_for(config, sampling)
    samples = pipeline.run(design.graph, rng=rng)
    attach_pe_batch(samples, pe_kind)
    return samples


# --------------------------------------------------------------------------- #
# Edge-regression samples
# --------------------------------------------------------------------------- #
def build_edge_regression_samples(design: DesignData, config: DataConfig = DataConfig(),
                                  pe_kind: str = "dspd",
                                  normalizer: CapacitanceNormalizer | None = None,
                                  include_negatives: bool = True, rng=None,
                                  sampling=None) -> list[Subgraph]:
    """Coupling-capacitance regression subgraphs for one design.

    Positive links outside ``[cap_min, cap_max]`` are dropped (the paper keeps
    1e-21 F to 1e-15 F); targets are the normalised capacitances; injected
    negatives carry a zero target.

    The sampling itself is a staged pipeline seeded with the range-filtered
    positives; ``sampling`` may swap in any custom pipeline spec, provided it
    keeps links aligned with subgraphs (no shuffle stage — targets are zipped
    onto the extraction order; the builder shuffles at the end).
    """
    from ..graph.datapipe import (
        EnclosingExtractStage,
        InjectStage,
        LinkSeedStage,
        PermuteNegativeStage,
        SamplingPipeline,
        SeedBatch,
        as_pipeline,
    )

    rng = get_rng(rng if rng is not None else config.seed)
    normalizer = normalizer or CapacitanceNormalizer(config.cap_min, config.cap_max)

    positives = [link for link in design.graph.links if normalizer.in_range(link.capacitance)]
    if not positives:
        return []
    if sampling is not None:
        pipeline = as_pipeline(sampling)
    else:
        stages: list = [LinkSeedStage(balance=True, max_links=config.max_links_per_design)]
        if include_negatives:
            stages.append(PermuteNegativeStage(ratio=0.25))
        if config.inject_links:
            stages.append(InjectStage())
        stages.append(EnclosingExtractStage(hops=config.hops,
                                            max_nodes_per_hop=config.max_nodes_per_hop))
        pipeline = SamplingPipeline(stages)

    _, seeds = pipeline(design.graph, SeedBatch(positives=positives), rng=rng)
    if seeds.subgraphs is None:
        raise ValueError("edge-regression sampling pipeline has no extraction stage")
    links, samples = seeds.links, list(seeds.subgraphs)
    for link, subgraph in zip(links, samples):
        subgraph.target = normalizer.normalize(link.capacitance)
        subgraph.extras["capacitance_farad"] = link.capacitance
    attach_pe_batch(samples, pe_kind)
    order = rng.permutation(len(samples))
    return [samples[i] for i in order]


# --------------------------------------------------------------------------- #
# Node-regression samples
# --------------------------------------------------------------------------- #
def build_node_regression_samples(design: DesignData, config: DataConfig = DataConfig(),
                                  pe_kind: str = "dspd",
                                  normalizer: CapacitanceNormalizer | None = None,
                                  rng=None, sampling=None) -> list[Subgraph]:
    """Ground-capacitance regression subgraphs (Section IV-D).

    One sample per net/pin node with a known ground capacitance; 2-hop
    neighbourhoods, single anchor (so ``D0 == D1``), no negative injection.

    The label-filtered candidate nodes (with their normalised targets) seed a
    staged pipeline; ``sampling`` may replace the default cap-and-extract
    recipe, provided it keeps nodes aligned with subgraphs (no shuffle
    stage — the builder shuffles at the end).
    """
    from ..graph.datapipe import (
        NodeExtractStage,
        NodeSeedStage,
        SamplingPipeline,
        SeedBatch,
        as_pipeline,
    )

    rng = get_rng(rng if rng is not None else config.seed)
    normalizer = normalizer or CapacitanceNormalizer(config.cap_min, config.cap_max)
    if design.graph.node_ground_caps is None:
        raise ValueError(f"design {design.name} has no ground-capacitance labels")

    candidates = [
        node for node in range(design.graph.num_nodes)
        if design.graph.node_types[node] != NODE_DEVICE
        and design.graph.node_ground_caps[node] > 0
        and normalizer.in_range(design.graph.node_ground_caps[node])
    ]
    targets = [normalizer.normalize(design.graph.node_ground_caps[node])
               for node in candidates]
    if sampling is not None:
        pipeline = as_pipeline(sampling)
    else:
        pipeline = SamplingPipeline([
            NodeSeedStage(limit=config.max_nodes_per_design),
            NodeExtractStage(hops=config.node_hops,
                             max_nodes_per_hop=config.max_nodes_per_hop),
        ])

    _, seeds = pipeline(design.graph,
                        SeedBatch(nodes=np.asarray(candidates, dtype=np.int64),
                                  targets=targets),
                        rng=rng)
    if seeds.subgraphs is None:
        raise ValueError("node-regression sampling pipeline has no extraction stage")
    nodes = [] if seeds.nodes is None else [int(n) for n in seeds.nodes]
    samples = list(seeds.subgraphs)
    for node, subgraph in zip(nodes, samples):
        subgraph.extras["node"] = node
        subgraph.extras["capacitance_farad"] = design.graph.node_ground_caps[node]
    attach_pe_batch(samples, pe_kind)
    order = rng.permutation(len(samples))
    return [samples[i] for i in order]
