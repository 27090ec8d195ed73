"""Dataset and loader subsystem for sampled enclosing subgraphs.

Three pieces carry sampled subgraphs from a design to the model:

* :class:`PECache` — a process-wide LRU cache of positional encodings keyed by
  ``(design, link, pe_kind, topology digest)``, so repeated epochs and
  repeated evaluations of the same design never recompute a PE.
* :class:`SubgraphDataset` — a sequence of subgraphs that is either
  *materialized* (wraps a list) or *lazy* (extracts the enclosing subgraph of
  link ``i`` on demand with a per-index deterministic RNG, so every epoch sees
  identical samples and the PE cache stays valid).
* :class:`DataLoader` — owns shuffling and batching; iterating yields
  :class:`~repro.graph.batch.SubgraphBatch` objects via ``collate``.

Every subgraph and every PE comes from the batched kernels
(:func:`~repro.graph.extract_enclosing_subgraphs` and
:func:`attach_pe_batch`): a loader batch is one call of each, and a single
un-prefetched ``dataset[i]`` is a one-element call.

Anything that accepts training data takes a dataset, a loader or a plain list
(:func:`as_dataset` normalises all three).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Sequence

import numpy as np

from ..graph import (
    Subgraph,
    SubgraphBatch,
    collate,
    compute_pe_batch,
)
from ..graph.hetero import CircuitGraph, Link
from ..nn.dtypes import FLOAT64
from ..utils.rng import get_rng

__all__ = [
    "PECache",
    "default_pe_cache",
    "set_default_pe_cache",
    "attach_pe_batch",
    "SubgraphDataset",
    "DataLoader",
    "as_dataset",
]


# --------------------------------------------------------------------------- #
# Positional-encoding cache
# --------------------------------------------------------------------------- #
class PECache:
    """LRU cache of positional encodings.

    Keys combine the design name, the target link (global anchor ids plus
    link type), the PE kind, and a cheap digest of the subgraph topology; the
    digest guarantees a stale entry can never be returned for a re-sampled
    subgraph with different nodes or edges.

    Eviction is LRU under *two* caps: an entry-count cap (``capacity``) and an
    approximate byte budget (``capacity_bytes``, summing the stored arrays'
    ``nbytes``).  The entry cap alone is no memory bound — entry size scales
    with subgraph size, so on chip-scale designs 16384 entries of large-hop
    PEs can be gigabytes.  ``capacity_bytes=None`` disables the byte budget.
    """

    def __init__(self, capacity: int = 16384,
                 capacity_bytes: int | None = 256 * 2**20):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("cache capacity_bytes must be positive (or None)")
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        self._store: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def size_bytes(self) -> int:
        """Approximate bytes held (sum of stored ``nbytes``; keys excluded)."""
        return self._bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def key_for(subgraph: Subgraph, pe_kind: str, design: str | None = None) -> tuple:
        """The cache key of a subgraph: anchors, link/PE kind, topology digest.

        The ``stats`` encoding is computed from ``node_stats`` (device W/L
        among them), so its key also digests those values: a resized copy of
        a design under the same name must not be served the old encodings.
        """
        design = design if design is not None else subgraph.extras.get("design")
        a, b = subgraph.anchors
        key = (
            design,
            int(subgraph.node_ids[a]),
            int(subgraph.node_ids[b]),
            int(subgraph.link_type),
            pe_kind,
            subgraph.num_nodes,
            subgraph.num_edges,
            hash(subgraph.node_ids.tobytes()),
            hash(subgraph.edge_index.tobytes()),
        )
        if pe_kind == "stats" and subgraph.node_stats is not None:
            key += (hash(subgraph.node_stats.tobytes()),)
        return key

    def get(self, key: tuple) -> np.ndarray | None:
        """Look up an encoding; counts a hit or miss and refreshes LRU order."""
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: tuple, value: np.ndarray) -> None:
        """Store an encoding, evicting LRU entries past either capacity cap.

        A single value larger than ``capacity_bytes`` is evicted immediately
        (the cache simply never retains it) rather than growing the budget.
        """
        old = self._store.pop(key, None)
        if old is not None:
            self._bytes -= int(old.nbytes)
        self._store[key] = value
        self._bytes += int(value.nbytes)
        while self._store and (
            len(self._store) > self.capacity
            or (self.capacity_bytes is not None and self._bytes > self.capacity_bytes)
        ):
            _, evicted = self._store.popitem(last=False)
            self._bytes -= int(evicted.nbytes)

    def invalidate_design(self, design: str | None) -> int:
        """Drop every entry of one design; returns the number evicted.

        Used by incremental re-annotation: a :class:`NetlistDelta` shifts the
        global node ids the keys are built from, so the design's entries can
        never be valid against the edited graph again (the topology digest
        already prevents wrong *hits*; this reclaims the memory).
        """
        stale = [key for key in self._store if key[0] == design]
        for key in stale:
            self._bytes -= int(self._store.pop(key).nbytes)
        return len(stale)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._store.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0


_DEFAULT_PE_CACHE = PECache()


def default_pe_cache() -> PECache:
    """The process-wide PE cache used when no explicit cache is given."""
    return _DEFAULT_PE_CACHE


def set_default_pe_cache(cache: PECache) -> PECache:
    """Swap the process-wide PE cache (returns the previous one)."""
    global _DEFAULT_PE_CACHE
    previous = _DEFAULT_PE_CACHE
    _DEFAULT_PE_CACHE = cache
    return previous


def attach_pe_batch(subgraphs: Sequence[Subgraph], pe_kind: str,
                    design: str | None = None, cache: PECache | None = None) -> None:
    """Ensure every ``subgraph.pe`` holds the requested encoding, via the cache.

    Hits set ``subgraph.pe`` to the stored array (shared, treated as
    read-only); the misses are encoded together via
    :func:`repro.graph.compute_pe_batch` (two multi-source BFS sweeps for the
    BFS-based kinds) and stored back.  One subgraph is a one-element list.
    """
    cache = cache if cache is not None else _DEFAULT_PE_CACHE
    misses: list[Subgraph] = []
    miss_keys: list[tuple] = []
    for subgraph in subgraphs:
        key = PECache.key_for(subgraph, pe_kind, design=design)
        encoding = cache.get(key)
        if encoding is None:
            misses.append(subgraph)
            miss_keys.append(key)
        else:
            subgraph.pe = encoding
    if misses:
        for key, encoding in zip(miss_keys, compute_pe_batch(misses, pe_kind)):
            cache.put(key, encoding)


# --------------------------------------------------------------------------- #
# Samplers (picklable factories behind lazy datasets)
# --------------------------------------------------------------------------- #
class _LinkSampler:
    """Picklable extraction recipe of a link-backed lazy dataset.

    Holds the host graph plus an :class:`~repro.graph.datapipe.EnclosingExtractStage`
    carrying the extraction parameters.  Calling it extracts one index as a
    one-element batch under the RNG ``[seed, index]``; :meth:`block` extracts
    many under ``[seed, len(block), block[0]]``.  Being a plain object (not a
    closure) it survives ``pickle``,
    which is what lets a lazy :class:`SubgraphDataset` be shipped to
    ``spawn``-style workers or written to disk; ``fork`` workers inherit it
    for free.
    """

    def __init__(self, graph: CircuitGraph, links: Sequence[Link], *, hops: int,
                 max_nodes_per_hop: int | None, add_target_edge: bool,
                 targets: Sequence[float] | None, design: str, seed: int,
                 fanouts=None):
        from ..graph.datapipe import EnclosingExtractStage

        self.graph = graph
        self.links = list(links)
        self.stage = EnclosingExtractStage(hops=hops,
                                           max_nodes_per_hop=max_nodes_per_hop,
                                           add_target_edge=add_target_edge,
                                           fanouts=fanouts)
        self.targets = None if targets is None else list(targets)
        self.design = design
        self.seed = int(seed)

    def _finish(self, subgraph: Subgraph, index: int) -> Subgraph:
        if self.targets is not None:
            subgraph.target = float(self.targets[index])
        subgraph.extras["design"] = self.design
        return subgraph

    def __call__(self, index: int) -> Subgraph:
        rng = np.random.default_rng([self.seed, index])
        subgraph = self.stage.extract_many(self.graph, [self.links[index]], rng=rng)[0]
        return self._finish(subgraph, index)

    def block(self, indices: list[int]) -> list[Subgraph]:
        """Extract a block of indices with the batched CSR sampler."""
        rng = np.random.default_rng([self.seed, len(indices), int(indices[0])])
        subgraphs = self.stage.extract_many(
            self.graph, [self.links[i] for i in indices], rng=rng)
        return [self._finish(s, i) for s, i in zip(subgraphs, indices)]


class _SubsetSampler:
    """Picklable per-index factory of a :meth:`SubgraphDataset.subset` view."""

    def __init__(self, parent: "SubgraphDataset", indices: np.ndarray):
        self.parent = parent
        self.indices = indices

    def __call__(self, index: int) -> Subgraph:
        return self.parent[int(self.indices[index])]


# --------------------------------------------------------------------------- #
# Dataset
# --------------------------------------------------------------------------- #
class SubgraphDataset:
    """A sequence of :class:`Subgraph` samples, materialized or lazy.

    Materialized datasets wrap an existing list (``from_samples``).  Lazy
    datasets (``from_links``) keep only the host graph and the target links
    and extract each enclosing subgraph on first access; extraction uses a
    per-index deterministic RNG so repeated epochs produce identical samples.
    Both modes route positional encodings through a :class:`PECache` when
    ``pe_kind`` is set.
    """

    def __init__(self, samples: list[Subgraph] | None = None, *,
                 factory: Callable[[int], Subgraph] | None = None,
                 length: int | None = None,
                 pe_kind: str | None = None,
                 design: str | None = None,
                 cache: PECache | None = None,
                 memoize: bool = True):
        if (samples is None) == (factory is None):
            raise ValueError("provide exactly one of samples= or factory=")
        if factory is not None and length is None:
            raise ValueError("lazy datasets need an explicit length")
        self._samples = list(samples) if samples is not None else None
        self._factory = factory
        self._length = len(self._samples) if self._samples is not None else int(length)
        self._memo: dict[int, Subgraph] = {}
        self._memoize = memoize
        self._block_factory: Callable[[list[int]], list[Subgraph]] | None = None
        self._prefetch_parent: tuple["SubgraphDataset", np.ndarray] | None = None
        self.pe_kind = pe_kind
        self.design = design
        self.cache = cache

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_samples(cls, samples: Sequence[Subgraph], pe_kind: str | None = None,
                     design: str | None = None, cache: PECache | None = None
                     ) -> "SubgraphDataset":
        """Wrap an already-extracted list of subgraphs."""
        return cls(list(samples), pe_kind=pe_kind, design=design, cache=cache)

    @classmethod
    def from_links(cls, graph: CircuitGraph, links: Sequence[Link], *,
                   hops: int = 1, max_nodes_per_hop: int | None = None,
                   add_target_edge: bool = True, targets: Sequence[float] | None = None,
                   pe_kind: str | None = "dspd", design: str | None = None,
                   cache: PECache | None = None, seed: int = 0,
                   memoize: bool = False, fanouts=None) -> "SubgraphDataset":
        """Lazy dataset: one enclosing subgraph per link, extracted on demand.

        The extraction recipe lives in a picklable :class:`_LinkSampler`
        (not a closure) driving an
        :class:`~repro.graph.datapipe.EnclosingExtractStage`, so the dataset
        itself can be pickled to workers.  ``fanouts`` optionally bounds the
        per-hop frontier expansion (its length overrides ``hops``).
        """
        links = list(links)
        design = design if design is not None else graph.name
        sampler = _LinkSampler(graph, links, hops=hops,
                               max_nodes_per_hop=max_nodes_per_hop,
                               add_target_edge=add_target_edge,
                               targets=targets, design=design, seed=seed,
                               fanouts=fanouts)
        dataset = cls(factory=sampler, length=len(links), pe_kind=pe_kind,
                      design=design, cache=cache, memoize=memoize)
        dataset._block_factory = sampler.block
        dataset._labels = np.array([l.label for l in links], dtype=FLOAT64)
        if targets is not None:
            dataset._targets = np.array(targets, dtype=FLOAT64)
        dataset._link_types = np.array([l.link_type for l in links], dtype=np.int64)
        return dataset

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Subgraph]:
        for index in range(self._length):
            yield self[index]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.subset(range(*index.indices(self._length)))
        index = int(index)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("dataset index out of range")
        if self._samples is not None:
            sample = self._samples[index]
        elif index in self._memo:
            # Non-memoizing datasets hand prefetched samples out exactly once,
            # so prefetch buffers never outlive the batch that consumes them.
            sample = self._memo[index] if self._memoize else self._memo.pop(index)
        else:
            sample = self._factory(index)
            if self._memoize:
                self._memo[index] = sample
        if self.pe_kind is not None and sample.pe is None:
            attach_pe_batch([sample], self.pe_kind, design=self.design, cache=self.cache)
        return sample

    def prefetch(self, indices) -> None:
        """Extract (and PE-encode) a block of lazy samples in one batched pass.

        Used by :class:`DataLoader` before collating each batch: link-backed
        datasets extract all requested subgraphs with the batched CSR sampler
        (:func:`repro.graph.extract_enclosing_subgraphs`) and encode the PE
        cache misses together via :func:`attach_pe_batch`, instead of looping
        per index.  Subset views forward to their parent; materialized
        datasets and plain factories are a no-op, so calling this is always
        safe.  Prefetched blocks equal the samples of ``dataset[i]`` except
        for the RNG stream used when hub-node subsampling
        (``max_nodes_per_hop``) triggers.
        """
        if self._samples is not None:
            return
        if self._prefetch_parent is not None:
            parent, mapping = self._prefetch_parent
            parent.prefetch([int(mapping[int(i)]) for i in indices])
            return
        if self._block_factory is None:
            return
        todo = [int(i) for i in indices if int(i) not in self._memo]
        if not todo:
            return
        blocks = self._block_factory(todo)
        for index, sample in zip(todo, blocks):
            self._memo[index] = sample
        if self.pe_kind is not None:
            pending = [s for s in blocks if s.pe is None]
            if pending:
                attach_pe_batch(pending, self.pe_kind, design=self.design, cache=self.cache)

    def absorb(self, indices, samples: Sequence[Subgraph]) -> None:
        """Store externally materialized samples in the memo (if memoizing).

        Used by the multi-worker :class:`DataLoader` path: samples extracted
        inside pool workers are written back into the parent's memo, so a
        memoizing dataset behaves identically to the serial path on later
        epochs (serial epoch 2 reuses epoch-1 samples; without the
        write-back, workers would re-extract with epoch-2 chunk RNG and —
        when hub subsampling triggers — produce different subgraphs).
        Subset views forward to their parent; non-memoizing and materialized
        datasets ignore the call.
        """
        if self._samples is not None:
            return
        if self._prefetch_parent is not None:
            parent, mapping = self._prefetch_parent
            parent.absorb([int(mapping[int(i)]) for i in indices], samples)
            return
        if not self._memoize:
            return
        for index, sample in zip(indices, samples):
            self._memo[int(index)] = sample

    # ------------------------------------------------------------------ #
    # Labels / targets (no extraction required)
    # ------------------------------------------------------------------ #
    def labels(self) -> np.ndarray:
        """Per-sample link labels (no subgraph extraction needed)."""
        if getattr(self, "_labels", None) is None:
            self._labels = np.array([s.label for s in self._materialized()], dtype=FLOAT64)
        return self._labels

    def targets(self) -> np.ndarray:
        """Per-sample regression targets (no subgraph extraction needed)."""
        if getattr(self, "_targets", None) is None:
            self._targets = np.array([s.target for s in self._materialized()], dtype=FLOAT64)
        return self._targets

    def link_types(self) -> np.ndarray:
        """Per-sample link-type codes (no subgraph extraction needed)."""
        if getattr(self, "_link_types", None) is None:
            self._link_types = np.array([s.link_type for s in self._materialized()],
                                        dtype=np.int64)
        return self._link_types

    def _materialized(self) -> Iterator[Subgraph]:
        if self._samples is not None:
            return iter(self._samples)
        return iter(self)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def subset(self, indices) -> "SubgraphDataset":
        """A view selecting ``indices`` (shares factory/cache with the parent)."""
        indices = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices,
                             dtype=np.int64)
        if self._samples is not None:
            view = SubgraphDataset([self._samples[i] for i in indices], pe_kind=self.pe_kind,
                                   design=self.design, cache=self.cache)
        else:
            view = SubgraphDataset(factory=_SubsetSampler(self, indices),
                                   length=len(indices), pe_kind=None,
                                   design=self.design, cache=self.cache, memoize=False)
            view._prefetch_parent = (self, indices)
        for name in ("_labels", "_targets", "_link_types"):
            values = getattr(self, name, None)
            if values is not None:
                setattr(view, name, values[indices])
        return view

    def shuffled(self, rng=None) -> "SubgraphDataset":
        """A permuted view of the dataset."""
        rng = get_rng(rng)
        return self.subset(rng.permutation(self._length))

    def split(self, fraction: float, rng=None) -> tuple["SubgraphDataset", "SubgraphDataset"]:
        """Split off the first ``round(fraction * len)`` samples as a head set.

        Returns ``(head, tail)``; shuffle first (``shuffled``) for a random
        split.  Mirrors the pre-existing ``samples[:num_val] / samples[num_val:]``
        convention of the training code.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("split fraction must be in [0, 1]")
        cut = int(round(self._length * fraction))
        indices = np.arange(self._length)
        return self.subset(indices[:cut]), self.subset(indices[cut:])

    def materialize(self) -> "SubgraphDataset":
        """Extract every sample now and return a materialized dataset."""
        if self._samples is not None:
            return self
        return SubgraphDataset([self[i] for i in range(self._length)], pe_kind=self.pe_kind,
                               design=self.design, cache=self.cache)

    def to_list(self) -> list[Subgraph]:
        """Materialize the dataset into a plain list of subgraphs."""
        return list(self)

    def __repr__(self) -> str:
        mode = "materialized" if self._samples is not None else "lazy"
        return (f"SubgraphDataset(len={self._length}, mode={mode}, "
                f"pe_kind={self.pe_kind!r}, design={self.design!r})")


def as_dataset(data) -> SubgraphDataset:
    """Normalise a dataset / loader / plain sequence of subgraphs to a dataset."""
    if isinstance(data, SubgraphDataset):
        return data
    if isinstance(data, DataLoader):
        return data.dataset
    return SubgraphDataset.from_samples(data)


# --------------------------------------------------------------------------- #
# Loader
# --------------------------------------------------------------------------- #
class DataLoader:
    """Shuffling + batching over a :class:`SubgraphDataset`.

    Iterating yields :class:`SubgraphBatch` objects.  The loader keeps its own
    RNG, so each epoch (each ``__iter__`` call) sees a fresh permutation.

    With ``num_workers > 0`` the per-batch extraction + PE encoding of *lazy*
    datasets is sharded across a ``fork`` process pool
    (:func:`repro.core.parallel.map_dataset_chunks`): the parent still draws
    one permutation per epoch and fixes the batch composition, workers run
    the identical per-chunk recipe, and batches are collated in epoch order —
    so for a fixed seed every ``num_workers`` setting yields byte-identical
    batches.  Materialized datasets (nothing left to compute) and platforms
    without ``fork`` fall back to the serial path automatically.
    """

    def __init__(self, dataset, batch_size: int = 64, shuffle: bool = True,
                 rng=None, drop_last: bool = False,
                 collate_fn: Callable[[list[Subgraph]], SubgraphBatch] = collate,
                 num_workers: int = 0):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.dataset = as_dataset(dataset)
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.collate_fn = collate_fn
        self.num_workers = int(num_workers)
        self._rng = get_rng(rng)

    def __len__(self) -> int:
        full, rest = divmod(len(self.dataset), self.batch_size)
        return full if (self.drop_last or rest == 0) else full + 1

    def _chunks(self) -> list[np.ndarray]:
        """The epoch's batch index chunks (one RNG draw when shuffling)."""
        order = np.arange(len(self.dataset))
        if self.shuffle:
            order = self._rng.permutation(order)
        chunks = [order[start:start + self.batch_size]
                  for start in range(0, len(order), self.batch_size)]
        if self.drop_last and chunks and len(chunks[-1]) < self.batch_size:
            chunks.pop()
        return chunks

    def _parallel_workers(self, num_chunks: int) -> int:
        """Worker count for this epoch (0 = serial).

        Parallel loading only pays off when there is lazy extraction work to
        shard; materialized datasets would just pickle existing samples
        through the pool.
        """
        from . import parallel

        if self.dataset._samples is not None:
            return 0
        return parallel.resolve_workers(self.num_workers, num_chunks)

    def __iter__(self) -> Iterator[SubgraphBatch]:
        chunks = self._chunks()
        if self._parallel_workers(len(chunks)):
            from . import parallel

            for chunk, samples in zip(chunks,
                                      parallel.map_dataset_chunks(self.dataset, chunks,
                                                                  workers=self.num_workers)):
                self.dataset.absorb(chunk, samples)
                yield self.collate_fn(samples)
            return
        for chunk in chunks:
            self.dataset.prefetch(chunk)
            yield self.collate_fn([self.dataset[int(i)] for i in chunk])
