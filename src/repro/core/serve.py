"""Batched netlist-annotation engine: the serving layer of the reproduction.

The paper's end product is a model that annotates AMS *schematic* netlists
with predicted coupling capacitances before any layout exists.  This module
turns a trained (or loaded, see :meth:`CircuitGPSPipeline.load`) pipeline into
a train-once / serve-many engine:

* :class:`AnnotationEngine` — wraps the pre-trained link model and a
  fine-tuned regression head, converts one-or-many SPICE netlists to
  heterogeneous graphs, and cuts all candidate links of a netlist (one
  :class:`~repro.core.data.LinkRequest`) into ``batch_size`` chunks.  Each
  chunk is extracted as one block by the batched CSR sampler and forwarded
  as it is; positional encodings go
  through one shared :class:`~repro.core.data.PECache` keyed by subgraph
  content, so a subgraph seen in any earlier netlist, request or revision
  never has its PE recomputed.
* :class:`NetlistAnnotation` — the structured result for one netlist:
  per-pair records, summary statistics, JSON serialisation and an annotated
  (flattened) SPICE netlist with the predicted couplings appended as
  capacitor cards.
* :func:`default_candidate_pairs` — a sensible candidate generator (signal
  net pairs) for netlists where the caller does not supply explicit pairs.
* :class:`AnnotationFailure` — the per-design error record that
  :meth:`AnnotationEngine.annotate_many` (``on_error="collect"``) and the
  annotation service (:mod:`repro.core.server`) both emit, so one failing
  design never aborts its peers.

The engine's inference recipe is exposed as composable hooks
(:meth:`AnnotationEngine.request_dataset` /
:meth:`~AnnotationEngine.extract_chunk` /
:meth:`~AnnotationEngine.predict_samples` /
:meth:`~AnnotationEngine.build_records`).  Every local entry point scores
through :meth:`~AnnotationEngine.score_pairs`, which maps the request's
chunks over the engine's fork pool (serial at ``workers=0``); the daemon in
:mod:`repro.core.server` replays the hooks chunk by chunk and shares only the
forward passes of concurrent requests, so all of them produce the same
records.

``benchmarks/test_serve_throughput.py`` pins the batched path at >= 3x the
per-link inference loop this engine replaced;
``benchmarks/test_serve_concurrent_throughput.py`` pins the daemon's
cross-request micro-batching at >= 2x sequential per-request serving.
"""

from __future__ import annotations

import copy
import itertools
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..graph import SubgraphBatch, collate, netlist_to_graph, patch_graph
from ..graph.hetero import (
    LINK_NET_NET,
    LINK_PIN_NET,
    LINK_PIN_PIN,
    LINK_TYPE_NAMES,
    NODE_NET,
    CircuitGraph,
    Link,
)
from ..netlist import Circuit, NetlistDelta, parse_spice_file, write_spice
from ..netlist.spice import format_si_value
from ..nn import no_grad, stable_sigmoid, use_dtype
from ..nn.dtypes import FLOAT32, FLOAT_DTYPES
from ..utils.logging import get_logger
from ..utils.rng import get_rng, spawn_seeds
from ..utils.serialization import save_json
from .data import LinkRequest, PECache
from .parallel import parallel_imap, parallel_map

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline import CircuitGPSPipeline

__all__ = ["AnnotationEngine", "AnnotationFailure", "DEFAULT_MAX_CANDIDATES",
           "NetlistAnnotation", "annotation_payload", "default_candidate_pairs"]

logger = get_logger("repro.serve")

#: Candidate cap of every entry point that draws its own candidate pairs.
DEFAULT_MAX_CANDIDATES = 200


def default_candidate_pairs(graph: CircuitGraph, max_candidates: int = DEFAULT_MAX_CANDIDATES,
                            rng=None, allowed=None) -> list[tuple[str, str]]:
    """Candidate node pairs for a netlist without explicit targets.

    Enumerates unordered pairs of *signal* nets (ground and supply nets are
    skipped — their couplings are not interesting prediction targets).  When
    the full pair count exceeds ``max_candidates`` a deterministic random
    subset is drawn.  ``allowed`` optionally restricts the net pool by name
    (sharded annotation passes each shard's ownership predicate).
    """
    rng = get_rng(rng)
    nets = [int(i) for i in graph.nodes_of_type(NODE_NET)
            if not Circuit.is_power_rail(graph.node_names[i])
            and (allowed is None or allowed(graph.node_names[i]))]
    n = len(nets)
    total = n * (n - 1) // 2
    if total <= max_candidates:
        pairs = list(itertools.combinations(nets, 2))
    else:
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < max_candidates:
            draw = rng.integers(0, n, size=(2 * (max_candidates - len(chosen)) + 8, 2))
            for a, b in draw:
                if a == b:
                    continue
                key = (min(a, b), max(a, b))
                chosen.add((nets[key[0]], nets[key[1]]))
                if len(chosen) >= max_candidates:
                    break
        pairs = sorted(chosen)
    return [(graph.node_names[a], graph.node_names[b]) for a, b in pairs]


def affected_names(old_graph: CircuitGraph, delta: NetlistDelta, new_graph: CircuitGraph,
                   hops: int) -> set[str]:
    """Every name whose pairs ``delta`` can change: the nodes of ``new_graph``
    within ``hops`` of a node the delta changes, plus the changed names that
    ``new_graph`` no longer has.

    The changed nodes are the touched nets plus every removed or added device
    and its pins.  A surviving node within ``hops`` of them before the change
    is also within ``hops`` after it: a shortest pre-change path reaches the
    changed set before it can use a removed edge (every removed edge has a
    changed endpoint), and the edges before that point exist after the
    change too.  So the post-change graph alone finds every affected node;
    the pre-change graph ``old_graph`` only names the removed devices' pins
    and nets (the nodes within two hops of each removed device), which are
    also the only nodes a delta can delete.
    """
    changed: set[str] = set()
    if delta.remove_devices:
        removed = [old_graph.node_index(name) for name in delta.remove_devices]
        changed.update(old_graph.node_names[int(i)]
                       for i in old_graph.csr.k_hop(np.asarray(removed, dtype=np.int64), 2))
    for device in delta.add_devices:
        changed.add(device.name)
        changed.update(device.nets)
        changed.update(f"{device.name}:{terminal}" for terminal in device.terminals)
    anchor_ids = sorted(new_graph.node_index(name) for name in changed
                        if new_graph.has_node(name))
    if not anchor_ids:
        return changed
    reached = new_graph.csr.k_hop(np.asarray(anchor_ids, dtype=np.int64), hops)
    return changed.union(new_graph.node_names[int(i)] for i in reached)


def record_index(records: Sequence[dict]) -> dict[str, list[int]]:
    """Name -> positions of the records whose pair names it."""
    index: dict[str, list[int]] = {}
    for position, record in enumerate(records):
        for name in record["pair"]:
            index.setdefault(name, []).append(position)
    return index


def annotation_payload(design: str, records: list[dict], threshold: float) -> dict:
    """The JSON-safe body shared by local reports and the wire protocol.

    :meth:`NetlistAnnotation.as_dict` adds ``elapsed_seconds`` on top; the
    annotation service (:mod:`repro.core.server`) ships this payload as-is —
    per-request timing belongs to ``/metrics``, keeping responses
    byte-reproducible.
    """
    couplings = sum(1 for record in records if record["coupled"])
    return {
        "design": design,
        "status": "ok",
        "num_candidates": len(records),
        "num_predicted_couplings": couplings,
        "threshold": threshold,
        "records": [dict(r, pair=list(r["pair"])) for r in records],
    }


@dataclass
class AnnotationFailure:
    """Per-design error record of a partially failed multi-netlist run.

    Emitted by :meth:`AnnotationEngine.annotate_many` with
    ``on_error="collect"`` and by the annotation service, so one malformed
    netlist (or unknown candidate pair) is reported as a ``status: "error"``
    entry instead of aborting every other design in its shard or batch.
    """

    design: str
    error_type: str
    message: str

    @property
    def ok(self) -> bool:
        """Always false; lets callers filter mixed report lists uniformly."""
        return False

    def as_dict(self) -> dict:
        """JSON-safe error entry (the shape the wire protocol uses too)."""
        return {
            "design": self.design,
            "status": "error",
            "error": {"type": self.error_type, "message": self.message},
        }


@dataclass
class NetlistAnnotation:
    """Structured annotation result for one netlist.

    ``records`` holds one dict per candidate pair with keys ``pair``,
    ``link_type``, ``coupling_probability``, ``coupled``,
    ``capacitance_normalized`` and ``capacitance_farad``.

    ``graph`` is the circuit graph the records were scored on, kept next to
    ``circuit`` so :meth:`AnnotationEngine.reannotate` can patch it instead
    of rebuilding it; ``index`` is :func:`record_index` of ``records``,
    which lets it find the records a delta touches without testing every
    one.  ``reannotate`` builds both when they are missing and carries them
    on its result; reset ``index`` to ``None`` after editing ``records``.
    ``graph`` is read-only once a report has been re-annotated: the next
    revision's graph shares its structure (:func:`~repro.graph.patch_graph`).
    Neither is serialised: not by :meth:`as_dict` and not when the report
    is pickled back from a worker process.
    """

    design: str
    records: list[dict]
    threshold: float
    elapsed_seconds: float
    circuit: Circuit | None = field(default=None, repr=False)
    graph: CircuitGraph | None = field(default=None, repr=False, compare=False)
    index: dict[str, list[int]] | None = field(default=None, repr=False, compare=False)
    #: Reuse summary of an incremental re-annotation (``reused`` /
    #: ``recomputed`` / ``dropped`` / ``added`` counts); ``None`` for full runs.
    incremental: dict | None = None

    def __getstate__(self) -> dict:
        """Pickle without ``graph`` and ``index`` (rebuilt when needed)."""
        return dict(self.__dict__, graph=None, index=None)

    @property
    def num_candidates(self) -> int:
        """Number of candidate pairs scored for this netlist."""
        return len(self.records)

    @property
    def couplings(self) -> list[dict]:
        """Records whose predicted probability clears the threshold."""
        return [r for r in self.records if r["coupled"]]

    @property
    def ok(self) -> bool:
        """Whether this report carries results (always true; see
        :class:`AnnotationFailure` for the error counterpart)."""
        return True

    def as_dict(self) -> dict:
        """JSON-safe report (pairs become two-element lists)."""
        payload = dict(annotation_payload(self.design, self.records, self.threshold),
                       elapsed_seconds=self.elapsed_seconds)
        if self.incremental is not None:
            payload["incremental"] = dict(self.incremental)
        return payload

    def write_json(self, path) -> pathlib.Path:
        """Write :meth:`as_dict` to ``path`` as JSON."""
        return save_json(path, self.as_dict())

    @classmethod
    def from_payload(cls, payload: dict,
                     circuit: Circuit | None = None) -> "NetlistAnnotation":
        """Rebuild a report from its JSON payload (pairs become tuples again).

        ``circuit`` reattaches the netlist the report was produced from,
        which :meth:`AnnotationEngine.reannotate` needs to replay a delta.
        """
        records = [dict(record, pair=tuple(record["pair"]))
                   for record in payload["records"]]
        return cls(design=payload["design"], records=records,
                   threshold=float(payload.get("threshold", 0.5)),
                   elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
                   circuit=circuit, incremental=payload.get("incremental"))

    def annotation_cards(self) -> list[str]:
        """SPICE cards for the predicted couplings.

        Net-net couplings become real capacitor cards (``CPRED<i>``); pairs
        involving pins (``device:terminal`` names are not valid SPICE nodes)
        are emitted as comment cards carrying the same information.
        """
        circuit = self._flat_circuit()
        net_names = set(circuit.nets) if circuit is not None else set()
        cards = [f"* {len(self.couplings)} predicted coupling(s), "
                 f"p >= {self.threshold:g} (CircuitGPS annotation engine)"]
        for index, record in enumerate(self.couplings):
            name_a, name_b = record["pair"]
            stats = (f"p={record['coupling_probability']:.3f} "
                     f"C={format_si_value(record['capacitance_farad'])}F")
            if name_a in net_names and name_b in net_names:
                cards.append(f"CPRED{index} {name_a} {name_b} "
                             f"{format_si_value(record['capacitance_farad'])} $ {stats}")
            else:
                cards.append(f"* coupling {name_a} <-> {name_b} {stats}")
        return cards

    def annotated_spice(self) -> str:
        """The netlist with predicted couplings appended as cards.

        Hierarchical inputs are emitted in *flattened* form — the same form
        the circuit graph (and therefore every annotation name, e.g.
        ``XBUF1/n_int``) is defined on; flattened names are not valid nodes
        inside the original hierarchy.
        """
        if self.circuit is None:
            raise RuntimeError(
                "annotation was produced from a bare graph; no netlist to annotate"
            )
        return write_spice(self._flat_circuit(), trailer_cards=self.annotation_cards())

    def _flat_circuit(self) -> Circuit | None:
        """The flat view of ``circuit`` (sharded hierarchical runs keep the
        hierarchical description and flatten only on demand here)."""
        if self.circuit is None or self.circuit.is_flat:
            return self.circuit
        return self.circuit.flatten()


class AnnotationEngine:
    """Batched inference over candidate couplings of one-or-many netlists.

    Wraps a *trained* :class:`~repro.core.pipeline.CircuitGPSPipeline` (the
    pre-trained link model plus the fine-tuned regression head for
    ``(task, mode)``) and serves annotation requests without ever touching the
    training code.  All candidate links of a netlist form one
    :class:`LinkRequest`, extracted and forwarded in ``batch_size`` chunks;
    extraction uses the batched CSR sampler and positional encodings are
    shared through one :class:`PECache` across every request this engine
    serves.  ``workers`` forks a pool over the chunks of one netlist and, in
    :meth:`annotate_many` / :meth:`annotate_sharded`, over designs or shards.
    """

    def __init__(self, pipeline: "CircuitGPSPipeline", task="edge_regression",
                 mode: str = "all", batch_size: int = 256,
                 cache: PECache | None = None, threshold: float = 0.5,
                 workers: int = 0, precision: str = "float64"):
        from ..api.tasks import resolve_task

        if pipeline.pretrain_result is None:
            raise RuntimeError("pipeline has no pre-trained link model; "
                               "run pretrain() or load a checkpoint first")
        # Legacy task strings, spec dicts and Task objects all resolve
        # through the repro.api task registry.
        task_obj = resolve_task(task)
        task = task_obj.name
        key = (task, mode)
        if key not in pipeline.finetune_results:
            available = sorted(pipeline.finetune_results)
            raise RuntimeError(
                f"pipeline has no fine-tuned head for {key}; available: {available}. "
                "Run finetune() or load a full-pipeline checkpoint."
            )
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.pipeline = pipeline
        self.task = task
        self.task_obj = task_obj
        self.mode = mode
        self.batch_size = int(batch_size)
        self.threshold = float(threshold)
        self.workers = int(workers)
        self.cache = cache if cache is not None else PECache()
        self.link_model = pipeline.pretrain_result.model
        self.reg_model = pipeline.finetune_results[key].model
        self.normalizer = pipeline.normalizer
        self.config = pipeline.config
        # Serving precision: float64 shares the pipeline's models untouched;
        # float32 serves deep-copied casts (checkpoints and further training
        # stay full-precision) and runs every forward under the float32 dtype
        # policy — roughly half the memory traffic and faster BLAS on CPU,
        # with AUC drift <= 1e-4 on the bundled designs (pinned by tests).
        self.precision = np.dtype(precision)
        if self.precision not in FLOAT_DTYPES:
            raise ValueError(
                f"precision must be 'float64' or 'float32', got {precision!r}"
            )
        if self.precision == FLOAT32:
            self.link_model = copy.deepcopy(self.link_model).cast(FLOAT32)
            self.reg_model = copy.deepcopy(self.reg_model).cast(FLOAT32)
        # (distinct, total) subgraphs forwarded so far, for the DEBUG lines.
        # Plain counters like the PE cache's: forwards run on one thread.
        self._subgraphs = np.zeros(2, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Input resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve(netlist) -> tuple[CircuitGraph, Circuit | None]:
        """Accept a SPICE file path, a :class:`Circuit` or a prebuilt graph."""
        if isinstance(netlist, CircuitGraph):
            return netlist, None
        if isinstance(netlist, Circuit):
            circuit = netlist if netlist.is_flat else netlist.flatten()
            return netlist_to_graph(circuit), circuit
        circuit = parse_spice_file(netlist).flatten()
        return netlist_to_graph(circuit), circuit

    @staticmethod
    def links_for_pairs(graph: CircuitGraph, pairs: Sequence[tuple[str, str]]) -> list[Link]:
        """Typed candidate :class:`Link` objects for named node pairs.

        Raises ``KeyError`` when a name is not a node of the circuit graph.
        """
        links = []
        for name_a, name_b in pairs:
            if not (graph.has_node(name_a) and graph.has_node(name_b)):
                raise KeyError(f"pair ({name_a!r}, {name_b!r}) not found in circuit graph")
            a, b = graph.node_index(name_a), graph.node_index(name_b)
            nets = int(graph.node_types[a] == NODE_NET) + int(graph.node_types[b] == NODE_NET)
            link_type = {2: LINK_NET_NET, 1: LINK_PIN_NET, 0: LINK_PIN_PIN}[nets]
            links.append(Link(source=a, target=b, link_type=link_type,
                              label=0.0, capacitance=0.0))
        return links

    # ------------------------------------------------------------------ #
    # Inference hooks (shared by annotate() and the annotation service)
    # ------------------------------------------------------------------ #
    def request_dataset(self, graph: CircuitGraph, links: list[Link],
                        seed: int = 0) -> LinkRequest:
        """The per-request link set the local and daemon paths share."""
        return LinkRequest(graph, links, hops=self.config.data.hops,
                           max_nodes_per_hop=self.config.data.max_nodes_per_hop,
                           pe_kind=self.link_model.pe_kind, cache=self.cache,
                           seed=seed)

    def request_chunks(self, num_links: int) -> list[list[int]]:
        """Sequential ``batch_size`` index chunks (the serial chunking)."""
        return [list(range(start, min(start + self.batch_size, num_links)))
                for start in range(0, num_links, self.batch_size)]

    def extract_chunk(self, request: LinkRequest, indices) -> SubgraphBatch:
        """One chunk of ``request`` as one block, PE attached."""
        return request.take(indices)

    def predict_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Forward one collated batch under the serving dtype policy."""
        self.link_model.eval()
        self.reg_model.eval()
        with no_grad(), use_dtype(self.precision):
            probs = stable_sigmoid(self.link_model(batch, task="link").data)
            caps = self.task_obj.forward(self.reg_model, batch).data
        self._subgraphs += (batch.distinct().count, batch.num_graphs)
        return probs, caps

    def predict_samples(self, samples) -> tuple[np.ndarray, np.ndarray]:
        """Collate + forward a block, ``(block, index)`` pairs (possibly from
        many requests' blocks) or a list of subgraphs."""
        if not len(samples):
            return np.zeros(0), np.zeros(0)
        return self.predict_batch(collate(samples))

    def build_records(self, pairs: Sequence[tuple[str, str]], links: Sequence[Link],
                      probs: np.ndarray, caps_norm: np.ndarray,
                      threshold: float | None = None) -> list[dict]:
        """Per-pair result records from raw model outputs."""
        threshold = self.threshold if threshold is None else float(threshold)
        records = []
        for pair, link, prob, cap_norm in zip(pairs, links, probs, caps_norm):
            clipped = float(np.clip(cap_norm, 0.0, 1.0))
            records.append({
                "pair": tuple(pair),
                "link_type": LINK_TYPE_NAMES[link.link_type],
                "coupling_probability": float(prob),
                "coupled": bool(prob >= threshold),
                "capacitance_normalized": clipped,
                "capacitance_farad": self.normalizer.denormalize(clipped),
            })
        return records

    def score_pairs(self, graph: CircuitGraph, pairs: Sequence[tuple[str, str]],
                    seed: int = 0) -> list[dict]:
        """One record per named node pair of ``graph``: the only synchronous
        pairs -> records path, batched exactly as :meth:`request_chunks`.

        With ``workers`` the chunks are extracted in a fork pool while this
        process forwards them in order; each chunk's RNG depends on the
        chunk alone, so the records do not depend on the worker count.
        """
        pairs = [tuple(pair) for pair in pairs]
        links = self.links_for_pairs(graph, pairs)
        if not links:
            return []
        request = self.request_dataset(graph, links, seed=seed)
        probs, caps = [], []
        for block in parallel_imap(request.take, self.request_chunks(len(links)),
                                   workers=self.workers):
            block_probs, block_caps = self.predict_samples(block)
            probs.append(block_probs)
            caps.append(block_caps)
        return self.build_records(pairs, links, np.concatenate(probs),
                                  np.concatenate(caps))

    def annotate(self, netlist, pairs: Sequence[tuple[str, str]] | None = None,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES,
                 seed: int = 0) -> NetlistAnnotation:
        """Annotate one netlist (path, :class:`Circuit` or graph) with couplings.

        When ``pairs`` is omitted, candidates come from
        :func:`default_candidate_pairs` capped at ``max_candidates``.
        """
        start = time.perf_counter()
        graph, circuit = self._resolve(netlist)
        if pairs is None:
            pairs = default_candidate_pairs(graph, max_candidates=max_candidates,
                                            rng=np.random.default_rng(seed))
        before = self._subgraphs.copy()
        records = self.score_pairs(graph, pairs, seed=seed)
        elapsed = time.perf_counter() - start
        distinct, total = self._subgraphs - before
        logger.debug("annotated %s: %d candidates in %.3fs (PE cache hit rate %.2f, "
                     "%d/%d subgraphs distinct)", graph.name, len(records), elapsed,
                     self.cache.hit_rate, distinct, total)
        return NetlistAnnotation(design=graph.name, records=records,
                                 threshold=self.threshold, elapsed_seconds=elapsed,
                                 circuit=circuit, graph=graph)

    @staticmethod
    def _design_name(netlist) -> str:
        """Best-effort design name of a netlist input, for error reports."""
        if isinstance(netlist, (CircuitGraph, Circuit)):
            return netlist.name
        return pathlib.Path(str(netlist)).stem

    def _annotate_task(self, task: tuple) -> NetlistAnnotation | AnnotationFailure:
        """Worker body of :meth:`annotate_many`: annotate one netlist."""
        netlist, pairs, max_candidates, seed, collect_errors = task
        try:
            return self.annotate(netlist, pairs=pairs, max_candidates=max_candidates,
                                 seed=seed)
        except Exception as exc:
            if not collect_errors:
                raise
            logger.warning("annotation of %s failed: %s",
                           self._design_name(netlist), exc)
            return AnnotationFailure(design=self._design_name(netlist),
                                     error_type=type(exc).__name__,
                                     message=str(exc))

    def annotate_many(self, netlists: Iterable, pairs=None,
                      max_candidates: int = DEFAULT_MAX_CANDIDATES,
                      seed: int = 0, max_workers: int | None = None,
                      on_error: str = "raise", seed_offset: int = 0
                      ) -> list[NetlistAnnotation | AnnotationFailure]:
        """Annotate several netlists, optionally sharded across worker processes.

        ``pairs`` may be ``None`` (auto candidates per netlist) or a sequence
        of per-netlist pair lists aligned with ``netlists``.

        ``on_error`` controls partial failure: ``"raise"`` propagates the
        first failing design's exception; ``"collect"`` returns an
        :class:`AnnotationFailure` (``status: "error"`` in JSON reports) in
        that design's slot while every other design — including the rest of
        the failing design's worker-group shard — still annotates normally.

        With ``max_workers`` (default: the engine's ``workers``) the designs
        fan out across a ``fork`` process pool
        (:func:`repro.core.parallel.parallel_map`): each worker inherits the
        engine — models, config, PE cache snapshot — runs the identical
        serial recipe with the identical per-design seed, and the merged
        reports come back in input order, so the records are byte-identical
        to a serial run.  Only the serial path accumulates cross-design
        PE-cache warmth in this process; workers warm private copies instead.

        Per-design seeds are spawned from ``np.random.SeedSequence(seed)``
        (:func:`repro.utils.rng.spawn_seeds`), so designs of *different* base
        seeds never share an RNG stream (additive ``seed + i`` derivation
        made seed 0's design 1 collide with seed 1's design 0).
        ``seed_offset`` skips that many spawned children first — callers that
        process one long design list in groups pass each group's start
        offset and get exactly the streams a single call would have used.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError("on_error must be 'raise' or 'collect'")
        netlists = list(netlists)
        if pairs is not None:
            pairs = list(pairs)
            if len(pairs) != len(netlists):
                raise ValueError("pairs must align with netlists")
        design_seeds = spawn_seeds(seed, len(netlists), offset=seed_offset)
        tasks = [
            (netlist, None if pairs is None else pairs[i], max_candidates,
             design_seeds[i], on_error == "collect")
            for i, netlist in enumerate(netlists)
        ]
        workers = max_workers if max_workers is not None else self.workers
        return parallel_map(self._annotate_task, tasks, workers=workers)

    # ------------------------------------------------------------------ #
    # Sharded annotation (chip-scale designs)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_sharded(netlist) -> tuple:
        """Like :meth:`_resolve`, but *preserving* subcircuit hierarchy.

        The shard planner wants the hierarchical description (it shards
        along instances before flattening); flattening here would force the
        full design into this process and defeat the memory bound.
        """
        if isinstance(netlist, CircuitGraph):
            return netlist, None
        if isinstance(netlist, Circuit):
            return netlist, netlist
        circuit = parse_spice_file(netlist)
        return circuit, circuit

    def _annotate_shard_task(self, task: tuple) -> list[dict]:
        """Worker body of :meth:`annotate_sharded`: annotate one shard.

        Hierarchy-strategy shards arrive as small circuits and are flattened
        *here*, inside the worker — the parent never materializes the full
        flat design.
        """
        shard, shard_pairs, max_candidates, seed = task
        source = shard.source
        graph = source if isinstance(source, CircuitGraph) else netlist_to_graph(source)
        if shard_pairs is None:
            rng = np.random.default_rng([int(seed), max(shard.index, 0)])
            shard_pairs = default_candidate_pairs(
                graph, max_candidates=max_candidates, rng=rng,
                allowed=shard.owns_name,
            )
        return self.score_pairs(graph, shard_pairs, seed=seed)

    def annotate_sharded(self, netlist, pairs: Sequence[tuple[str, str]] | None = None,
                         num_shards: int | None = None,
                         max_workers: int | None = None,
                         halo_hops: int | None = None,
                         max_candidates: int = DEFAULT_MAX_CANDIDATES,
                         seed: int = 0) -> NetlistAnnotation:
        """Annotate one (chip-scale) netlist in independent bounded shards.

        The design is split by :func:`repro.core.shard.plan_shards` — along
        its subcircuit hierarchy when it has one (each shard flattens only
        its own cells plus a halo, inside the worker), else by a BFS
        partition of the flattened graph with ``halo_hops``-hop node halos —
        and the shards fan out over the engine's fork pool, bounding each
        process's peak memory by the largest shard instead of the full
        design.

        With explicit ``pairs``, every pair is annotated on a shard (or a
        union shard for cross-shard pairs) that fully contains its enclosing
        subgraph, so with hub subsampling off (``max_nodes_per_hop=None``,
        which makes extraction independent of chunking) the merged records
        are byte-identical to an unsharded :meth:`annotate` of the same pairs.
        Without ``pairs``, each shard draws up to ``max_candidates``
        candidates among the signal nets *it owns* (a different, locally
        generated candidate set than unsharded annotation would draw).
        """
        start = time.perf_counter()
        workers = max_workers if max_workers is not None else self.workers
        if num_shards is None:
            num_shards = max(2, workers)
        from .shard import plan_shards

        source, circuit = self._resolve_sharded(netlist)
        plan = plan_shards(source, num_shards=num_shards,
                           hops=self.config.data.hops, halo_hops=halo_hops)
        groups = None
        if pairs is not None:
            pairs = [tuple(pair) for pair in pairs]
            groups = plan.assign(pairs)
            tasks = [(shard, [pairs[i] for i in positions], max_candidates, seed)
                     for shard, positions in groups]
        else:
            tasks = [(shard, None, max_candidates, seed) for shard in plan.shards]
        shard_records = parallel_map(self._annotate_shard_task, tasks,
                                     workers=workers)
        if groups is not None:
            records: list[dict] = [None] * len(pairs)  # type: ignore[list-item]
            for (_, positions), chunk in zip(groups, shard_records):
                for position, record in zip(positions, chunk):
                    records[position] = record
        else:
            records = [record for chunk in shard_records for record in chunk]
        elapsed = time.perf_counter() - start
        logger.debug(
            "annotated %s via %d %s shard(s): %d records in %.3fs",
            source.name, plan.num_shards, plan.strategy, len(records), elapsed,
        )
        return NetlistAnnotation(design=source.name, records=records,
                                 threshold=self.threshold,
                                 elapsed_seconds=elapsed, circuit=circuit)

    # ------------------------------------------------------------------ #
    # Incremental re-annotation (ECO deltas)
    # ------------------------------------------------------------------ #
    def reannotate(self, prev_report: NetlistAnnotation, delta,
                   seed: int = 0,
                   extra_pairs: Sequence[tuple[str, str]] | None = None
                   ) -> NetlistAnnotation:
        """Re-annotate only what a :class:`~repro.netlist.delta.NetlistDelta`
        can have changed.

        A pair is *affected* when either anchor lies within ``hops`` of any
        changed node (touched nets, changed devices and their pins) in the
        pre- or post-change graph — exactly the condition under which its
        enclosing subgraph (or the node statistics inside it) can differ.
        The post-change graph alone finds every such surviving anchor
        (:func:`affected_names`).  It is patched from the graph the previous
        report was scored on (:func:`~repro.graph.patch_graph`), which a
        report without one (read back with :meth:`NetlistAnnotation.from_payload`,
        or from :meth:`annotate_sharded`) builds once from its circuit; the
        returned report carries the new graph for the next delta.  A delta
        of in-place edits keeps the device order, and a resize shares the
        previous graph's structure and CSR adjacency, so the affected-node
        search reuses that adjacency.
        The records naming an affected or deleted node are found through the
        report's name -> positions ``index`` (built once for a report
        without one, rebuilt only when records are dropped or added).
        Affected pairs are re-scored on the new graph; unaffected records
        are carried over verbatim (byte-identical to a full re-annotation);
        pairs whose anchors were removed are dropped; ``extra_pairs``
        (e.g. candidates on newly added nets) are appended.  The
        :class:`~repro.core.data.PECache` stays valid across the delta: its
        keys are subgraph content, not node ids.
        """
        start = time.perf_counter()
        if prev_report.circuit is None:
            raise RuntimeError(
                "previous report carries no circuit (annotated from a bare "
                "graph?); incremental re-annotation needs prev_report.circuit"
            )
        old_flat = prev_report.circuit
        if not old_flat.is_flat:
            old_flat = old_flat.flatten()
        old_graph = prev_report.graph
        if old_graph is None:
            old_graph = netlist_to_graph(old_flat)
        new_flat = delta.apply(old_flat)
        new_graph = patch_graph(old_graph, delta, new_flat)
        affected: set[str] = set()
        if not delta.is_empty:
            affected = affected_names(old_graph, delta, new_graph, self.config.data.hops)
        records = prev_report.records
        index = prev_report.index
        if index is None:
            index = record_index(records)
            # A report read back from JSON next to a circuit may name nodes
            # its graph never had; their records are dropped below.
            affected.update(name for name in index if not old_graph.has_node(name))
        stale_positions: list[int] = []
        stale_pairs: list[tuple[str, str]] = []
        dropped: set[int] = set()
        for position in sorted({position for name in index.keys() & affected
                                for position in index[name]}):
            name_a, name_b = records[position]["pair"]
            if new_graph.has_node(name_a) and new_graph.has_node(name_b):
                stale_positions.append(position)
                stale_pairs.append((name_a, name_b))
            else:
                dropped.add(position)
        extras = [tuple(pair) for pair in (extra_pairs or [])]
        before = self._subgraphs.copy()
        fresh = self.score_pairs(new_graph, stale_pairs + extras, seed=seed)
        distinct, total = self._subgraphs - before
        merged = [record.copy() for record in records]
        for position, record in zip(stale_positions, fresh):
            merged[position] = record
        if dropped:
            merged = [record for position, record in enumerate(merged)
                      if position not in dropped]
        merged.extend(fresh[len(stale_pairs):])
        if dropped or extras:
            index = record_index(merged)
        reused = len(records) - len(stale_pairs) - len(dropped)
        elapsed = time.perf_counter() - start
        logger.debug(
            "reannotated %s: %d reused, %d recomputed, %d dropped, %d added "
            "in %.3fs (PE cache hit rate %.2f, %d/%d subgraphs distinct)",
            prev_report.design, reused, len(stale_pairs), len(dropped), len(extras),
            elapsed, self.cache.hit_rate, distinct, total,
        )
        return NetlistAnnotation(design=prev_report.design, records=merged,
                                 threshold=self.threshold,
                                 elapsed_seconds=elapsed, circuit=new_flat,
                                 graph=new_graph, index=index,
                                 incremental={"reused": reused,
                                              "recomputed": len(stale_pairs),
                                              "dropped": len(dropped),
                                              "added": len(extras)})
