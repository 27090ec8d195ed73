"""Dataset and loader subsystem for sampled enclosing subgraphs.

Three pieces carry sampled subgraphs from a design to the model:

* :class:`PECache` — a process-wide LRU cache of positional encodings keyed by
  the exact bytes the encoding reads (:func:`pe_cache_keys`: PE kind, node
  count, local edges and anchors), so any subgraph seen before — in another
  epoch, another request or another design — never recomputes its PE.
* :class:`LinkRequest` — the candidate links of one annotation request.
  Every serving path cuts it into chunks and extracts each chunk as one
  :func:`~repro.graph.extract_enclosing_subgraphs` block with its PE
  attached by :func:`attach_pe_batch`, under an RNG that depends on the
  chunk alone; that block is what the model forwards.
* :class:`SubgraphDataset` — a list of already-extracted subgraphs: the
  pre-training, fine-tuning and evaluation sets.
* :class:`DataLoader` — shuffles and batches a dataset; iterating yields
  :class:`~repro.graph.batch.SubgraphBatch` blocks via ``collate``.

Anything that accepts training data takes a dataset, a loader or a plain list
(:func:`as_dataset` normalises all three).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from ..graph import (
    PE_KINDS,
    Subgraph,
    SubgraphBatch,
    collate,
    compute_pe_batch,
    extract_enclosing_subgraphs,
)
from ..graph.batch import group_keys, segment_bytes
from ..graph.hetero import CircuitGraph, Link
from ..nn.dtypes import FLOAT64
from ..utils.rng import get_rng

__all__ = [
    "PECache",
    "pe_cache_keys",
    "default_pe_cache",
    "attach_pe_batch",
    "LinkRequest",
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
# Serving: one request's candidate links
# --------------------------------------------------------------------------- #
class LinkRequest:
    """The candidate links of one annotation request, extracted chunk by chunk.

    :meth:`take` extracts a chunk of link indices as one block with the
    batched CSR sampler, under the RNG ``[seed, len(chunk), chunk[0]]``, and
    attaches its positional encoding through ``cache``.  The RNG depends on
    the chunk alone, so a chunk extracts the same block in whichever process
    takes it: the caller's, a fork-pool worker or the daemon's executor.
    """

    def __init__(self, graph: CircuitGraph, links: Sequence[Link], *, hops: int,
                 max_nodes_per_hop: int | None, pe_kind: str, cache: PECache,
                 seed: int = 0):
        self.graph = graph
        self.links = list(links)
        self.hops = int(hops)
        self.max_nodes_per_hop = max_nodes_per_hop
        self.pe_kind = pe_kind
        self.cache = cache
        self.seed = int(seed)

    def take(self, indices) -> SubgraphBatch:
        """The links at ``indices`` (a non-empty chunk) as one block, PE attached."""
        indices = [int(i) for i in indices]
        block = extract_enclosing_subgraphs(
            self.graph, [self.links[i] for i in indices], hops=self.hops,
            max_nodes_per_hop=self.max_nodes_per_hop,
            rng=np.random.default_rng([self.seed, len(indices), indices[0]]))
        attach_pe_batch(block, self.pe_kind, cache=self.cache)
        return block


# --------------------------------------------------------------------------- #
# Training: a list of extracted subgraphs
# --------------------------------------------------------------------------- #
class SubgraphDataset:
    """A list of extracted :class:`Subgraph` samples (a training or test set).

    With ``pe_kind`` set, :meth:`take` attaches that encoding, through the
    process-wide :class:`PECache` (:func:`default_pe_cache`), to every taken
    sample that has none yet.
    """

    def __init__(self, samples: Sequence[Subgraph], *, pe_kind: str | None = None):
        self._samples = list(samples)
        self.pe_kind = pe_kind

    @classmethod
    def from_samples(cls, samples: Sequence[Subgraph],
                     pe_kind: str | None = None) -> "SubgraphDataset":
        """Wrap an already-extracted list of subgraphs."""
        return cls(samples, pe_kind=pe_kind)

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, index) -> Subgraph:
        return self.take([index])[0]

    def __iter__(self) -> Iterator[Subgraph]:
        return iter(self.take(range(len(self))))

    def take(self, indices) -> list[Subgraph]:
        """The samples at ``indices``, ready for ``collate``."""
        samples = [self._samples[int(i)] for i in indices]
        if self.pe_kind is not None:
            attach_pe_batch([s for s in samples if s.pe is None], self.pe_kind)
        return samples

    def labels(self) -> np.ndarray:
        """Per-sample link labels."""
        return np.array([s.label for s in self._samples], dtype=FLOAT64)

    def targets(self) -> np.ndarray:
        """Per-sample regression targets."""
        return np.array([s.target for s in self._samples], dtype=FLOAT64)

    def subset(self, indices) -> "SubgraphDataset":
        """The samples at ``indices``, as a dataset with the same PE settings."""
        return SubgraphDataset([self._samples[int(i)] for i in indices],
                               pe_kind=self.pe_kind)

    def shuffled(self, rng=None) -> "SubgraphDataset":
        """A permuted copy of the dataset."""
        return self.subset(get_rng(rng).permutation(len(self)))

    def split(self, fraction: float) -> tuple["SubgraphDataset", "SubgraphDataset"]:
        """Split off the first ``round(fraction * len)`` samples as a head set.

        Returns ``(head, tail)``; shuffle first (``shuffled``) for a random
        split.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("split fraction must be in [0, 1]")
        cut = int(round(len(self) * fraction))
        return self.subset(range(cut)), self.subset(range(cut, len(self)))

    def __repr__(self) -> str:
        return f"SubgraphDataset(len={len(self)}, pe_kind={self.pe_kind!r})"


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

    Iterating yields one collated :class:`SubgraphBatch` per ``batch_size``
    chunk of the dataset.  The loader keeps its own RNG, so each epoch (each
    ``__iter__`` call) sees a fresh permutation.
    """

    def __init__(self, dataset, batch_size: int = 64, shuffle: bool = True, rng=None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = as_dataset(dataset)
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self._rng = get_rng(rng)

    def __len__(self) -> int:
        return -(-len(self.dataset) // self.batch_size)

    def __iter__(self) -> Iterator[SubgraphBatch]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            order = self._rng.permutation(order)
        for start in range(0, len(order), self.batch_size):
            yield collate(self.dataset.take(order[start:start + self.batch_size]))
