"""Composable sampling datapipes (graphbolt-style staged pipelines).

The paper's data story is one fixed recipe — permute-endpoint negatives,
class balancing, SEAL-style link injection, h-hop enclosing-subgraph
extraction.  This module decomposes the recipe into composable *stages*,
chained by a :class:`SamplingPipeline`:

.. code-block:: text

    link_seeds ──> negative_* ──> [inject] ──> [fanout] ──> enclosing ──> [pe] ──> shuffle
    node_seeds ───────────────────────────────────────────> node ───────> [pe] ──> shuffle

Every stage follows one uniform contract::

    stage(graph, seeds, *, rng) -> (graph, seeds)

where ``seeds`` is a :class:`SeedBatch` accumulating the pipeline state
(positive/negative links, seed nodes, fanout plan, extracted subgraphs).
Stage *factories* are registered in :data:`repro.api.registries.SAMPLERS`, so
a pipeline is declaratively described as a list of ``{"stage": name,
**kwargs}`` entries — serialisable through :class:`~repro.api.spec.ExperimentSpec`
and checkpoints, buildable via ``Registry.build``, and selectable from the
CLI (``repro train --sampling ...``).

The default link pipeline (:func:`default_link_pipeline`) is the paper's
recipe: ``default_link_pipeline(...).run(graph, rng=seed)`` is how tests,
benchmarks and examples sample a link dataset.  Both extraction stages call
the batched extractors of :mod:`repro.graph.sampling` on the whole seed list.
"""

from __future__ import annotations

import numpy as np

from ..api.registries import SAMPLERS
from ..api.registry import RegistryError
from ..utils.rng import get_rng
from .hetero import NODE_DEVICE, CircuitGraph, Link
from .negative import (
    conditioned_negatives,
    permute_negative_links,
    stratified_negative_links,
)
from .batch import Subgraph, SubgraphBatch
from .sampling import (
    balance_links,
    extract_enclosing_subgraphs,
    extract_node_subgraphs,
    inject_link_edges,
    normalize_fanouts,
)

__all__ = [
    "SeedBatch",
    "SamplerStage",
    "SamplingPipeline",
    "LinkSeedStage",
    "NodeSeedStage",
    "PermuteNegativeStage",
    "UniformNegativeStage",
    "StratifiedNegativeStage",
    "InjectStage",
    "FanoutStage",
    "EnclosingExtractStage",
    "NodeExtractStage",
    "AttachPEStage",
    "ShuffleStage",
    "default_link_pipeline",
    "default_node_pipeline",
    "as_pipeline",
    "normalize_sampling_spec",
    "normalize_fanouts",
]


class SeedBatch:
    """The mutable state flowing through a sampling pipeline.

    Seed-source stages fill ``positives`` (link tasks) or ``nodes`` (+
    optional ``targets``; node tasks); negative stages append to
    ``negatives`` (and ``conditioned`` for the conditioned samplers);
    :class:`InjectStage` flips ``injected``; :class:`FanoutStage` records the
    per-hop ``fanouts`` plan; extraction stages produce ``subgraphs`` (one
    block, which :class:`ShuffleStage` turns into a list of subgraphs).
    """

    def __init__(self, positives=None, negatives=None, nodes=None, targets=None,
                 conditioned=None, fanouts=None, injected: bool = False,
                 subgraphs=None):
        self.positives: list[Link] = list(positives) if positives is not None else []
        self.negatives: list[Link] = list(negatives) if negatives is not None else []
        self.nodes = None if nodes is None else np.asarray(nodes, dtype=np.int64)
        self.targets = None if targets is None else list(targets)
        self.conditioned = list(conditioned) if conditioned is not None else []
        self.fanouts = normalize_fanouts(fanouts)
        self.injected = bool(injected)
        self.subgraphs: SubgraphBatch | list[Subgraph] | None = subgraphs

    @property
    def links(self) -> list[Link]:
        """All seed links, positives first (the extraction order)."""
        return self.positives + self.negatives

    @classmethod
    def coerce(cls, seeds) -> "SeedBatch":
        """Normalise a seed argument: ``None``, a :class:`SeedBatch`, a list
        of links (split into positives/negatives by label) or an array of
        node ids."""
        if seeds is None:
            return cls()
        if isinstance(seeds, cls):
            return seeds
        if isinstance(seeds, np.ndarray):
            return cls(nodes=seeds)
        if isinstance(seeds, (list, tuple)):
            items = list(seeds)
            if items and isinstance(items[0], Link):
                return cls(positives=[l for l in items if l.label > 0],
                           negatives=[l for l in items if l.label <= 0])
            return cls(nodes=np.asarray(items, dtype=np.int64)) if items else cls()
        raise TypeError(
            f"seeds must be a SeedBatch, a list of Links or a node array, "
            f"got {type(seeds).__name__}"
        )

    def __repr__(self) -> str:
        nodes = 0 if self.nodes is None else int(self.nodes.size)
        done = "?" if self.subgraphs is None else len(self.subgraphs)
        return (f"SeedBatch(positives={len(self.positives)}, "
                f"negatives={len(self.negatives)}, nodes={nodes}, "
                f"subgraphs={done})")


class SamplerStage:
    """Base class (and protocol) of one sampling stage.

    A stage is any callable with the uniform contract
    ``stage(graph, seeds, *, rng) -> (graph, seeds)``; subclassing is
    optional but provides seed coercion, RNG normalisation and declarative
    ``spec()`` round-trips for free.  Subclasses implement :meth:`apply` and
    stash their constructor kwargs in ``self._kwargs``.
    """

    def __init__(self, **kwargs):
        self._kwargs = dict(kwargs)

    def __call__(self, graph: CircuitGraph, seeds=None, *, rng=None
                 ) -> tuple[CircuitGraph, SeedBatch]:
        seeds = SeedBatch.coerce(seeds)
        return self.apply(graph, seeds, rng=get_rng(rng))

    def apply(self, graph: CircuitGraph, seeds: SeedBatch, *, rng
              ) -> tuple[CircuitGraph, SeedBatch]:
        """Transform ``(graph, seeds)``; subclasses implement this hook."""
        raise NotImplementedError

    def spec(self) -> dict:
        """The declarative ``{"stage": name, **kwargs}`` form of this stage."""
        name = getattr(self, "registry_name", None) or type(self).__name__
        return {"stage": name, **self._kwargs}

    def __repr__(self) -> str:
        kwargs = ", ".join(f"{k}={v!r}" for k, v in self._kwargs.items())
        return f"{type(self).__name__}({kwargs})"


# --------------------------------------------------------------------------- #
# Seed sources
# --------------------------------------------------------------------------- #
@SAMPLERS.register("link_seeds")
class LinkSeedStage(SamplerStage):
    """Seed the pipeline with (balanced, capped) positive links.

    Uses the already-seeded positives when the incoming batch has any,
    otherwise the host graph's ground-truth links — so the stage works both
    as a pipeline head and downstream of a custom seed source.
    """

    def __init__(self, balance: bool = True, max_links: int | None = None,
                 per_type: int | None = None):
        super().__init__(balance=balance, max_links=max_links, per_type=per_type)
        self.balance = bool(balance)
        self.max_links = max_links
        self.per_type = per_type

    def apply(self, graph, seeds, *, rng):
        positives = seeds.positives if seeds.positives else list(graph.links)
        if self.balance:
            positives = balance_links(positives, per_type=self.per_type, rng=rng)
        if self.max_links is not None and len(positives) > self.max_links:
            chosen = rng.choice(len(positives), size=self.max_links, replace=False)
            positives = [positives[i] for i in chosen]
        seeds.positives = positives
        return graph, seeds


@SAMPLERS.register("node_seeds")
class NodeSeedStage(SamplerStage):
    """Seed the pipeline with (capped) anchor nodes for node-level tasks.

    Uses the already-seeded node array when present (the node-regression
    builder seeds label-filtered candidates), otherwise every non-device
    node.  ``limit`` subsamples without replacement, keeping the drawn order
    and any aligned ``targets``.
    """

    def __init__(self, limit: int | None = None, include_devices: bool = False):
        super().__init__(limit=limit, include_devices=include_devices)
        self.limit = limit
        self.include_devices = bool(include_devices)

    def apply(self, graph, seeds, *, rng):
        if seeds.nodes is not None:
            nodes = seeds.nodes
        elif self.include_devices:
            nodes = np.arange(graph.num_nodes, dtype=np.int64)
        else:
            nodes = np.flatnonzero(graph.node_types != NODE_DEVICE).astype(np.int64)
        if self.limit is not None and nodes.size > self.limit:
            chosen = rng.choice(nodes.size, size=self.limit, replace=False)
            nodes = nodes[chosen]
            if seeds.targets is not None:
                seeds.targets = [seeds.targets[i] for i in chosen]
        seeds.nodes = nodes
        return graph, seeds


# --------------------------------------------------------------------------- #
# Negative samplers
# --------------------------------------------------------------------------- #
@SAMPLERS.register("negative_permute")
class PermuteNegativeStage(SamplerStage):
    """Permute-endpoint negatives (the paper's sampler, vectorised).

    ``strict=False`` (the default pipeline's setting) reproduces the
    historical draw sequence byte-for-byte; ``strict=True`` guarantees the
    exact requested count or raises
    :class:`~repro.graph.negative.NegativeSamplingError`.
    """

    def __init__(self, ratio: float = 1.0, max_tries: int = 50,
                 strict: bool = False):
        super().__init__(ratio=ratio, max_tries=max_tries, strict=strict)
        self.ratio = float(ratio)
        self.max_tries = int(max_tries)
        self.strict = bool(strict)

    def apply(self, graph, seeds, *, rng):
        seeds.negatives.extend(permute_negative_links(
            seeds.positives, graph.num_nodes, ratio=self.ratio, rng=rng,
            max_tries=self.max_tries, strict=self.strict,
        ))
        return graph, seeds


@SAMPLERS.register("negative_uniform")
class UniformNegativeStage(SamplerStage):
    """Uniform corrupt-head/tail negatives (DGL-style, conditioned).

    Emits ``k`` corrupt heads and ``k`` corrupt tails per positive, drawn
    from same-node-type pools with rejection resampling; the conditioned
    ``[u, v, neg_heads, neg_tails]`` batches are kept on
    ``seeds.conditioned`` and the flattened links join ``seeds.negatives``.
    """

    def __init__(self, k: int = 1, max_tries: int = 50, strict: bool = True):
        super().__init__(k=k, max_tries=max_tries, strict=strict)
        self.k = int(k)
        self.max_tries = int(max_tries)
        self.strict = bool(strict)

    def apply(self, graph, seeds, *, rng):
        batches = conditioned_negatives(
            graph.node_types, seeds.positives, k=self.k, rng=rng,
            max_tries=self.max_tries, strict=self.strict, avoid=graph.links,
        )
        seeds.conditioned.extend(batches)
        for batch in batches:
            seeds.negatives.extend(batch.to_links())
        return graph, seeds


@SAMPLERS.register("negative_stratified")
class StratifiedNegativeStage(SamplerStage):
    """Degree/type-stratified negatives: replacement endpoints share the
    replaced endpoint's *(node type, degree-quantile)* stratum, keeping the
    negatives' hubness profile aligned with the positives'."""

    def __init__(self, k: int = 1, bins: int = 4, max_tries: int = 50,
                 strict: bool = True):
        super().__init__(k=k, bins=bins, max_tries=max_tries, strict=strict)
        self.k = int(k)
        self.bins = int(bins)
        self.max_tries = int(max_tries)
        self.strict = bool(strict)

    def apply(self, graph, seeds, *, rng):
        seeds.negatives.extend(stratified_negative_links(
            graph.node_types, graph.csr.degrees(), seeds.positives, k=self.k,
            bins=self.bins, rng=rng, max_tries=self.max_tries,
            strict=self.strict, avoid=graph.links,
        ))
        return graph, seeds


# --------------------------------------------------------------------------- #
# Graph transforms and extraction
# --------------------------------------------------------------------------- #
@SAMPLERS.register("inject")
class InjectStage(SamplerStage):
    """SEAL-style link injection: all of the design's ground-truth links plus
    the sampled negatives become typed edges of the host graph, and
    downstream extraction stops adding per-sample target edges."""

    def __init__(self):
        super().__init__()

    def apply(self, graph, seeds, *, rng):
        host = inject_link_edges(graph, list(graph.links) + seeds.negatives)
        seeds.injected = True
        return host, seeds


@SAMPLERS.register("fanout")
class FanoutStage(SamplerStage):
    """Record a per-hop fanout plan bounding frontier growth downstream.

    ``fanouts[h]`` caps the half-edges each frontier node expands at hop
    ``h`` (``None``/``-1`` = uncapped); the plan's length fixes the hop
    count.  The cap is applied inside the extraction stages' frontier
    expansion, so on hub-dense designs subgraph size stays bounded instead
    of exploding with the neighbourhood radius.
    """

    def __init__(self, fanouts=(8, 4)):
        plan = normalize_fanouts(fanouts)
        super().__init__(fanouts=list(plan))
        self.fanouts = plan

    def apply(self, graph, seeds, *, rng):
        seeds.fanouts = self.fanouts
        return graph, seeds


@SAMPLERS.register("enclosing")
class EnclosingExtractStage(SamplerStage):
    """Extract the h-hop enclosing subgraph of every seed link (Definition 1).

    ``add_target_edge=None`` resolves to "add unless links were injected",
    matching the legacy coupling between injection and target edges.  A
    fanout plan (own kwarg or a preceding :class:`FanoutStage`) overrides
    ``hops``/``max_nodes_per_hop`` with per-hop caps.
    """

    def __init__(self, hops: int = 1, max_nodes_per_hop: int | None = None,
                 add_target_edge: bool | None = None, fanouts=None):
        super().__init__(hops=hops, max_nodes_per_hop=max_nodes_per_hop,
                         add_target_edge=add_target_edge,
                         fanouts=None if fanouts is None else list(normalize_fanouts(fanouts)))
        self.hops = int(hops)
        self.max_nodes_per_hop = max_nodes_per_hop
        self.add_target_edge = add_target_edge
        self.fanouts = normalize_fanouts(fanouts)

    def _resolve(self, seeds: SeedBatch | None) -> tuple[bool, tuple | None]:
        add_target = self.add_target_edge
        if add_target is None:
            add_target = not (seeds is not None and seeds.injected)
        fanouts = self.fanouts
        if fanouts is None and seeds is not None:
            fanouts = seeds.fanouts
        return bool(add_target), fanouts

    def extract_many(self, graph, links, *, rng=None, seeds=None) -> SubgraphBatch:
        """Extract an explicit link list as one block (one link is a
        one-element block)."""
        add_target, fanouts = self._resolve(seeds)
        return extract_enclosing_subgraphs(
            graph, links, hops=self.hops, max_nodes_per_hop=self.max_nodes_per_hop,
            add_target_edge=add_target, rng=get_rng(rng), fanouts=fanouts,
        )

    def apply(self, graph, seeds, *, rng):
        seeds.subgraphs = self.extract_many(graph, seeds.links, rng=rng, seeds=seeds)
        return graph, seeds


@SAMPLERS.register("node")
class NodeExtractStage(SamplerStage):
    """Extract the h-hop subgraph around every seed node (node-level tasks)."""

    def __init__(self, hops: int = 2, max_nodes_per_hop: int | None = None,
                 fanouts=None):
        super().__init__(hops=hops, max_nodes_per_hop=max_nodes_per_hop,
                         fanouts=None if fanouts is None else list(normalize_fanouts(fanouts)))
        self.hops = int(hops)
        self.max_nodes_per_hop = max_nodes_per_hop
        self.fanouts = normalize_fanouts(fanouts)

    def apply(self, graph, seeds, *, rng):
        nodes = seeds.nodes if seeds.nodes is not None else np.zeros(0, dtype=np.int64)
        fanouts = self.fanouts if self.fanouts is not None else seeds.fanouts
        seeds.subgraphs = extract_node_subgraphs(
            graph, nodes, hops=self.hops, targets=seeds.targets,
            max_nodes_per_hop=self.max_nodes_per_hop, rng=rng, fanouts=fanouts,
        )
        return graph, seeds


@SAMPLERS.register("pe")
class AttachPEStage(SamplerStage):
    """Attach positional encodings to the extracted subgraphs (cache-backed)."""

    def __init__(self, pe_kind: str = "dspd"):
        super().__init__(pe_kind=pe_kind)
        self.pe_kind = str(pe_kind)

    def apply(self, graph, seeds, *, rng):
        if seeds.subgraphs:
            from ..core.data import attach_pe_batch

            attach_pe_batch(seeds.subgraphs, self.pe_kind)
        return graph, seeds


@SAMPLERS.register("shuffle")
class ShuffleStage(SamplerStage):
    """Shuffle the extracted subgraphs into a list (one ``rng.permutation``
    draw)."""

    def __init__(self):
        super().__init__()

    def apply(self, graph, seeds, *, rng):
        if seeds.subgraphs is not None:
            order = rng.permutation(len(seeds.subgraphs))
            seeds.subgraphs = [seeds.subgraphs[i] for i in order]
        return graph, seeds


# --------------------------------------------------------------------------- #
# Pipeline
# --------------------------------------------------------------------------- #
class SamplingPipeline:
    """A chain of sampling stages with a declarative spec round-trip.

    Stages run in order under the uniform ``(graph, seeds, *, rng)``
    contract; a pipeline itself satisfies the stage contract, so pipelines
    nest.  :meth:`run` returns the extracted subgraphs.
    """

    def __init__(self, stages):
        self.stages = [self._coerce_stage(entry) for entry in stages]

    @staticmethod
    def _coerce_stage(entry):
        if isinstance(entry, str):
            return SAMPLERS.build(entry)
        if isinstance(entry, dict):
            payload = dict(entry)
            name = payload.pop("stage", None)
            if name is None:
                name = payload.pop("type", None)
            else:
                payload.pop("type", None)
            if name is None:
                raise RegistryError(
                    f"pipeline stage entry {entry!r} has no 'stage' key"
                )
            return SAMPLERS.build({"type": name, **payload})
        if callable(entry):
            return entry
        raise RegistryError(
            f"pipeline stage must be a name, a {{'stage': ...}} dict or a "
            f"callable, got {type(entry).__name__}"
        )

    @classmethod
    def from_spec(cls, spec) -> "SamplingPipeline":
        """Build a pipeline from any accepted spec form (see :func:`as_pipeline`)."""
        return as_pipeline(spec)

    def spec(self) -> list[dict]:
        """The declarative ``[{"stage": name, **kwargs}, ...]`` description."""
        entries = []
        for stage in self.stages:
            if hasattr(stage, "spec"):
                entries.append(stage.spec())
            else:
                name = getattr(stage, "registry_name", None) or getattr(
                    stage, "__name__", type(stage).__name__)
                entries.append({"stage": name})
        return entries

    def __call__(self, graph: CircuitGraph, seeds=None, *, rng=None
                 ) -> tuple[CircuitGraph, SeedBatch]:
        seeds = SeedBatch.coerce(seeds)
        rng = get_rng(rng)
        for stage in self.stages:
            graph, seeds = stage(graph, seeds, rng=rng)
        return graph, seeds

    def run(self, graph: CircuitGraph, seeds=None, *, rng=None) -> list[Subgraph]:
        """Run every stage and return the extracted subgraphs as a list."""
        _, seeds = self(graph, seeds, rng=rng)
        if seeds.subgraphs is None:
            raise ValueError(
                "sampling pipeline produced no subgraphs — it needs an "
                "extraction stage ('enclosing' or 'node')"
            )
        return list(seeds.subgraphs)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"SamplingPipeline({[e['stage'] for e in self.spec()]})"


@SAMPLERS.register("link_dataset")
def default_link_pipeline(max_links: int | None = None, negative_ratio: float = 1.0,
                          balance: bool = True, hops: int = 1,
                          max_nodes_per_hop: int | None = None,
                          inject_links: bool = True, fanouts=None,
                          strict_negatives: bool = False) -> SamplingPipeline:
    """The paper's link-sampling recipe as a pipeline.

    seed/balance/cap -> permute negatives -> inject -> [fanout] -> extract ->
    shuffle.  ``max_links`` caps the number of *positive* links, mirroring
    the "#links" column of Table IV.  With ``inject_links=True`` (the
    paper's SEAL-style setup) all positive links of the design plus the
    generated negatives become typed edges of the host graph before
    extraction.  ``.run(graph, rng=...)`` returns one shuffled
    :class:`Subgraph` per positive or negative link.
    """
    stages: list = [
        LinkSeedStage(balance=balance, max_links=max_links),
        PermuteNegativeStage(ratio=negative_ratio, strict=strict_negatives),
    ]
    if inject_links:
        stages.append(InjectStage())
    if fanouts is not None:
        stages.append(FanoutStage(fanouts))
    stages.append(EnclosingExtractStage(hops=hops, max_nodes_per_hop=max_nodes_per_hop))
    stages.append(ShuffleStage())
    return SamplingPipeline(stages)


@SAMPLERS.register("node_dataset")
def default_node_pipeline(limit: int | None = None, hops: int = 2,
                          max_nodes_per_hop: int | None = None,
                          fanouts=None) -> SamplingPipeline:
    """The node-regression recipe as a pipeline: cap seeds, extract, shuffle."""
    stages: list = [NodeSeedStage(limit=limit)]
    if fanouts is not None:
        stages.append(FanoutStage(fanouts))
    stages.append(NodeExtractStage(hops=hops, max_nodes_per_hop=max_nodes_per_hop))
    stages.append(ShuffleStage())
    return SamplingPipeline(stages)


def as_pipeline(sampling) -> SamplingPipeline:
    """Normalise a sampling spec to a :class:`SamplingPipeline`.

    Accepts a pipeline (returned as-is), a registered sampler name (a
    pipeline factory such as ``"link_dataset"`` or a single stage), one
    stage entry dict, or a list of stage entries.
    """
    if isinstance(sampling, SamplingPipeline):
        return sampling
    if isinstance(sampling, str):
        built = SAMPLERS.build(sampling)
        return built if isinstance(built, SamplingPipeline) else SamplingPipeline([built])
    if isinstance(sampling, dict):
        return SamplingPipeline([sampling])
    if isinstance(sampling, (list, tuple)):
        return SamplingPipeline(sampling)
    raise RegistryError(
        f"sampling spec must be a pipeline, a sampler name or a list of "
        f"stage entries, got {type(sampling).__name__}"
    )


def normalize_sampling_spec(sampling):
    """Validate a sampling spec and return its JSON-serialisable form.

    ``None`` passes through; a registered name stays a string; anything else
    becomes the canonical ``[{"stage": name, **kwargs}, ...]`` list.  Unknown
    stage names raise :class:`~repro.api.registry.RegistryError` listing the
    registered samplers.
    """
    if sampling is None:
        return None
    if isinstance(sampling, str):
        SAMPLERS.get(sampling)  # raises on unknown names
        return sampling
    return as_pipeline(sampling).spec()
