"""Dataset and loader subsystem for sampled enclosing subgraphs.

Three pieces carry sampled subgraphs from a design to the model:

* :class:`PECache` — a process-wide LRU cache of positional encodings keyed by
  the exact bytes the encoding reads (:func:`pe_cache_keys`: PE kind, node
  count, local edges and anchors), so any subgraph seen before — in another
  epoch, another request or another design — never recomputes its PE.
* :class:`SubgraphDataset` — a sequence of subgraphs that is either
  *materialized* (wraps a list) or *lazy* (extracts the enclosing subgraphs
  of the requested links on demand with a deterministic RNG, so every epoch
  sees identical samples).
* :class:`DataLoader` — owns shuffling and batching; iterating yields
  :class:`~repro.graph.batch.SubgraphBatch` blocks via ``collate``.

Every subgraph and every PE comes from the batched kernels: a lazy loader
batch is one :func:`~repro.graph.extract_enclosing_subgraphs` block with its
PE attached by :func:`attach_pe_batch`, and that block is what the model
forwards.  A single ``dataset[i]`` outside a loader batch is a one-element
block.

Anything that accepts training data takes a dataset, a loader or a plain list
(:func:`as_dataset` normalises all three).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Sequence

import numpy as np

from ..graph import (
    PE_KINDS,
    Subgraph,
    SubgraphBatch,
    collate,
    compute_pe_batch,
)
from ..graph.batch import group_keys, segment_bytes
from ..graph.hetero import CircuitGraph, Link
from ..nn.dtypes import FLOAT64
from ..utils.rng import get_rng

__all__ = [
    "PECache",
    "pe_cache_keys",
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

    Keys are the exact bytes an encoding reads (:func:`pe_cache_keys`), so
    an entry is valid for every subgraph with those inputs, whatever design,
    link or request it came from, and a stale entry can never be returned.

    Eviction is LRU under *two* caps: an entry-count cap (``capacity``) and an
    approximate byte budget (``capacity_bytes``, summing the stored arrays'
    ``nbytes`` and the bytes of the keys).  The entry cap alone is no memory bound — entry size scales
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
        """Approximate bytes held: stored ``nbytes`` plus the keys' bytes
        (content keys grow with the subgraph, like the values)."""
        return self._bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

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
            self._bytes -= _entry_bytes(key, old)
        self._store[key] = value
        self._bytes += _entry_bytes(key, value)
        while self._store and (
            len(self._store) > self.capacity
            or (self.capacity_bytes is not None and self._bytes > self.capacity_bytes)
        ):
            self._bytes -= _entry_bytes(*self._store.popitem(last=False))

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._store.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0


def _entry_bytes(key: tuple, value: np.ndarray) -> int:
    return int(value.nbytes) + sum(len(part) for part in key if isinstance(part, bytes))


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


def pe_cache_keys(block: SubgraphBatch, pe_kind: str) -> list[tuple]:
    """The :class:`PECache` key of every subgraph of ``block``.

    A key is the exact bytes of what a built-in encoding reads: the kind,
    the node count, the local edges (``(E, 2)`` int64 rows) and the local
    anchors (two int64).  ``stats`` also reads ``node_stats``, so its key
    adds their dtype and bytes.
    """
    pe_kind = pe_kind.lower()
    nodes = block.node_offsets
    columns = [segment_bytes(block.local_edges, block.edge_offsets),
               segment_bytes(block.local_anchors, np.arange(block.num_graphs + 1))]
    if pe_kind == "stats":
        columns += [[block.node_stats.dtype.str] * block.num_graphs,
                    segment_bytes(block.node_stats, nodes)]
    return [(pe_kind, count, *inputs)
            for count, *inputs in zip(np.diff(nodes).tolist(), *columns)]


def _cached_pe(block: SubgraphBatch, pe_kind: str, cache: PECache) -> np.ndarray:
    """The ``(N, d)`` PE of ``block``: one cache lookup per distinct key,
    and the misses computed together, each once."""
    if pe_kind.lower() not in PE_KINDS:
        return compute_pe_batch(block, pe_kind)  # plugin kinds: uncached
    keys = pe_cache_keys(block, pe_kind)
    inverse, first = group_keys(keys)
    found = [cache.get(keys[graph]) for graph in first.tolist()]
    missing = [group for group, value in enumerate(found) if value is None]
    if missing:
        computed = block.select(first[missing])
        pe = compute_pe_batch(computed, pe_kind)
        bounds = computed.node_offsets.tolist()
        for group, start, stop in zip(missing, bounds[:-1], bounds[1:]):
            found[group] = pe[start:stop].copy()
            cache.put(keys[int(first[group])], found[group])
        if computed is block:  # every subgraph distinct and new
            return pe
    counts = np.array([value.shape[0] for value in found], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.concatenate(found)[starts[inverse[block.batch]] + block.segments().slots]


def attach_pe_batch(samples, pe_kind: str, cache: PECache | None = None) -> None:
    """Attach the requested encoding through the cache.

    ``samples`` is a block (its ``pe`` is set) or a list of subgraphs (each
    ``subgraph.pe`` is set to its rows of the collated list's PE).  Plugin
    kinds are computed without the cache.
    """
    cache = cache if cache is not None else _DEFAULT_PE_CACHE
    if not len(samples):
        return
    if isinstance(samples, SubgraphBatch):
        samples.pe = _cached_pe(samples, pe_kind, cache)
        return
    block = collate(list(samples))
    pe = _cached_pe(block, pe_kind, cache)
    bounds = block.node_offsets.tolist()
    for subgraph, start, stop in zip(samples, bounds[:-1], bounds[1:]):
        subgraph.pe = pe[start:stop]


# --------------------------------------------------------------------------- #
# Samplers (picklable factories behind lazy datasets)
# --------------------------------------------------------------------------- #
class _LinkSampler:
    """Picklable extraction recipe of a link-backed lazy dataset.

    Holds the host graph plus an :class:`~repro.graph.datapipe.EnclosingExtractStage`
    carrying the extraction parameters.  Calling it extracts one index as a
    one-element block under the RNG ``[seed, index]``; :meth:`block` extracts
    many under ``[seed, len(block), block[0]]``.  Being a plain object (not a
    closure) it survives ``pickle``,
    which is what lets a lazy :class:`SubgraphDataset` be shipped to
    ``spawn``-style workers or written to disk; ``fork`` workers inherit it
    for free.
    """

    def __init__(self, graph: CircuitGraph, links: Sequence[Link], *, hops: int,
                 max_nodes_per_hop: int | None, add_target_edge: bool,
                 targets: Sequence[float] | None, seed: int, fanouts=None):
        from ..graph.datapipe import EnclosingExtractStage

        self.graph = graph
        self.links = list(links)
        self.stage = EnclosingExtractStage(hops=hops,
                                           max_nodes_per_hop=max_nodes_per_hop,
                                           add_target_edge=add_target_edge,
                                           fanouts=fanouts)
        self.targets = None if targets is None else np.asarray(targets, dtype=FLOAT64)
        self.seed = int(seed)

    def __call__(self, index: int) -> Subgraph:
        return self.block([index], rng=np.random.default_rng([self.seed, index]))[0]

    def block(self, indices: list[int], rng=None) -> SubgraphBatch:
        """Extract a block of indices with the batched CSR sampler."""
        if rng is None:
            rng = np.random.default_rng([self.seed, len(indices), int(indices[0])])
        block = self.stage.extract_many(self.graph, [self.links[i] for i in indices], rng=rng)
        if self.targets is not None:
            block.targets = self.targets[indices]
        return block


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
        self._block_factory: Callable[[list[int]], SubgraphBatch] | None = None
        self._parent: tuple["SubgraphDataset", np.ndarray] | None = None
        self.pe_kind = pe_kind
        self.cache = cache

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_samples(cls, samples: Sequence[Subgraph], pe_kind: str | None = None,
                     cache: PECache | None = None) -> "SubgraphDataset":
        """Wrap an already-extracted list of subgraphs."""
        return cls(list(samples), pe_kind=pe_kind, cache=cache)

    @classmethod
    def from_links(cls, graph: CircuitGraph, links: Sequence[Link], *,
                   hops: int = 1, max_nodes_per_hop: int | None = None,
                   add_target_edge: bool = True, targets: Sequence[float] | None = None,
                   pe_kind: str | None = "dspd", cache: PECache | None = None,
                   seed: int = 0,
                   memoize: bool = False, fanouts=None) -> "SubgraphDataset":
        """Lazy dataset: one enclosing subgraph per link, extracted on demand.

        The extraction recipe lives in a picklable :class:`_LinkSampler`
        (not a closure) driving an
        :class:`~repro.graph.datapipe.EnclosingExtractStage`, so the dataset
        itself can be pickled to workers.  ``fanouts`` optionally bounds the
        per-hop frontier expansion (its length overrides ``hops``).
        """
        links = list(links)
        sampler = _LinkSampler(graph, links, hops=hops,
                               max_nodes_per_hop=max_nodes_per_hop,
                               add_target_edge=add_target_edge,
                               targets=targets, seed=seed, fanouts=fanouts)
        dataset = cls(factory=sampler, length=len(links), pe_kind=pe_kind,
                      cache=cache, memoize=memoize)
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
            sample = self._memo[index]
        else:
            sample = self._factory(index)
            if self._memoize:
                self._memo[index] = sample
        if self.pe_kind is not None and sample.pe is None:
            attach_pe_batch([sample], self.pe_kind, cache=self.cache)
        return sample

    def take(self, indices):
        """The samples at ``indices``, ready for ``collate``.

        A link-backed lazy dataset extracts the indices it does not hold
        yet as one block and attaches its PE in one pass; when that is all
        of them, the block itself is returned.  Otherwise, and for every
        other dataset, the result is a list of subgraphs.  Subset views
        forward to their parent.
        """
        indices = [int(i) for i in indices]
        if self._parent is not None:
            parent, mapping = self._parent
            return parent.take([int(mapping[i]) for i in indices])
        todo = [i for i in indices if i not in self._memo]
        if self._block_factory is None or not todo:
            return [self[i] for i in indices]
        block = self._block_factory(todo)
        if self.pe_kind is not None:
            attach_pe_batch(block, self.pe_kind, cache=self.cache)
        if self._memoize:
            self._memo.update(zip(todo, block))
        return block if len(todo) == len(indices) else [self[i] for i in indices]

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
        if self._parent is not None:
            parent, mapping = self._parent
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
                                   cache=self.cache)
        else:
            view = SubgraphDataset(factory=_SubsetSampler(self, indices),
                                   length=len(indices), pe_kind=None,
                                   cache=self.cache, memoize=False)
            view._parent = (self, indices)
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
                               cache=self.cache)

    def __repr__(self) -> str:
        mode = "materialized" if self._samples is not None else "lazy"
        return (f"SubgraphDataset(len={self._length}, mode={mode}, "
                f"pe_kind={self.pe_kind!r})")


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

    Iterating yields :class:`SubgraphBatch` objects: ``collate_fn`` receives
    each batch's :meth:`SubgraphDataset.take` (a block for lazy link
    datasets, else a list of subgraphs).  The loader keeps its own RNG, so
    each epoch (each ``__iter__`` call) sees a fresh permutation.

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
                 collate_fn: Callable[..., SubgraphBatch] = collate,
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
            yield self.collate_fn(self.dataset.take(chunk))
