"""Tests for the dataset/loader subsystem and the positional-encoding cache."""

import copy

import numpy as np
import pytest

from repro.core.data import (
    DataLoader,
    PECache,
    SubgraphDataset,
    as_dataset,
    attach_pe_batch,
    default_pe_cache,
    pe_cache_keys,
    set_default_pe_cache,
)
from repro.core.datasets import build_link_samples
from repro.core.serve import AnnotationEngine
from repro.graph import (
    Subgraph,
    collate,
    compute_pe_batch,
    extract_enclosing_subgraphs,
    extract_node_subgraphs,
    netlist_to_graph,
)
from repro.netlist import Mosfet, ssram
from tests.oracles.pe_cache_key import pe_cache_key


def key_of(subgraph, pe_kind="dspd"):
    """The cache key of one subgraph."""
    return pe_cache_keys(collate([subgraph]), pe_kind)[0]


@pytest.fixture()
def samples(small_design, tiny_config):
    return build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)


@pytest.fixture()
def fresh_cache():
    """Swap in an empty default cache for the duration of a test."""
    cache = PECache(capacity=256)
    previous = set_default_pe_cache(cache)
    yield cache
    set_default_pe_cache(previous)


class TestPECache:
    def test_put_get_and_hit_counting(self, samples):
        cache = PECache(capacity=8)
        key = key_of(samples[0])
        assert cache.get(key) is None
        cache.put(key, samples[0].pe)
        assert cache.get(key) is samples[0].pe
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self, samples):
        cache = PECache(capacity=2)
        keys = [key_of(s) for s in samples[:3]]
        cache.put(keys[0], samples[0].pe)
        cache.put(keys[1], samples[1].pe)
        cache.get(keys[0])                    # key 0 is now most-recently used
        cache.put(keys[2], samples[2].pe)     # evicts key 1
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None
        assert len(cache) == 2

    def test_key_distinguishes_topology(self, samples):
        a, b = samples[0], samples[1]
        assert key_of(a) != key_of(b)
        assert key_of(a) != key_of(a, "rwse")

    def test_byte_budget_evicts_lru_before_entry_cap(self):
        """Regression: eviction used to count entries only, so a few huge
        PEs could blow memory while the entry count sat far below capacity."""
        row = np.zeros((100,), dtype=np.float64)  # 800 bytes per entry
        cache = PECache(capacity=1000, capacity_bytes=2000)
        for index in range(3):
            cache.put(("k", index), row.copy())
        assert len(cache) == 2                     # third put evicted ("k", 0)
        assert cache.size_bytes == 1600
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 2)) is not None

    def test_oversized_single_value_does_not_stick(self):
        cache = PECache(capacity=8, capacity_bytes=100)
        cache.put(("big",), np.zeros(1000, dtype=np.float64))
        assert len(cache) == 0
        assert cache.size_bytes == 0

    def test_overwrite_same_key_updates_byte_accounting(self):
        cache = PECache(capacity=8, capacity_bytes=10_000)
        cache.put(("k",), np.zeros(100, dtype=np.float64))
        cache.put(("k",), np.zeros(50, dtype=np.float64))
        assert len(cache) == 1
        assert cache.size_bytes == 400

    def test_byte_budget_disabled_with_none(self):
        cache = PECache(capacity=4, capacity_bytes=None)
        for index in range(4):
            cache.put(("k", index), np.zeros(10_000, dtype=np.float64))
        assert len(cache) == 4

    def test_key_bytes_count_against_the_budget(self):
        cache = PECache(capacity=8, capacity_bytes=1000)
        cache.put(("dspd", 3, b"e" * 400), np.zeros(10))
        assert cache.size_bytes == 480
        cache.put(("dspd", 4, b"f" * 400), np.zeros(10))   # 960 bytes: both fit
        cache.put(("dspd", 5, b"g" * 400), np.zeros(10))   # evicts the first
        assert len(cache) == 2 and cache.size_bytes == 960
        assert cache.get(("dspd", 3, b"e" * 400)) is None

    def test_clear_resets_byte_accounting(self):
        cache = PECache(capacity=8, capacity_bytes=10_000)
        cache.put(("k",), np.zeros(100, dtype=np.float64))
        cache.clear()
        assert cache.size_bytes == 0 and len(cache) == 0

    def test_invalid_byte_budget_rejected(self):
        with pytest.raises(ValueError):
            PECache(capacity_bytes=0)

    def test_attach_pe_hits_on_second_call(self, samples):
        cache = PECache()
        subgraph = samples[0]
        subgraph.pe = None
        attach_pe_batch([subgraph], "dspd", cache=cache)
        first = subgraph.pe
        subgraph.pe = None
        attach_pe_batch([subgraph], "dspd", cache=cache)
        assert subgraph.pe.tobytes() == first.tobytes()
        assert cache.hits == 1 and cache.misses == 1

    def test_attach_pe_batch_mixed_hits(self, samples):
        cache = PECache()
        for s in samples:
            s.pe = None
        attach_pe_batch(samples[:4], "dspd", cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        for s in samples[:8]:
            s.pe = None
        attach_pe_batch(samples[:8], "dspd", cache=cache)
        assert cache.hits == 4 and cache.misses == 8
        assert all(s.pe is not None for s in samples[:8])

    def test_repeated_build_link_samples_hits_cache(self, small_design, tiny_config,
                                                    fresh_cache):
        build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)
        assert fresh_cache.hits == 0
        misses = fresh_cache.misses
        build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)
        # Same rng -> identical subgraphs -> every PE comes from the cache.
        assert fresh_cache.hits == misses
        assert fresh_cache.misses == misses


@pytest.fixture()
def twin_blocks():
    """The same links on an SSRAM and on a renamed copy with one bit-line
    device resized: identical topology, different statistics."""
    original = ssram(rows=4, cols=4).flatten()
    resized = copy.deepcopy(original)
    resized.name = "RESIZED_COPY"
    device = next(d for d in resized.devices if isinstance(d, Mosfet) and "BL0" in d.nets)
    device.width *= 4.0
    blocks = []
    for circuit in (original, resized):
        graph = netlist_to_graph(circuit)
        links = AnnotationEngine.links_for_pairs(
            graph, [("BL0", "BL1"), ("BL0", "WL0"), ("WL1", "BL1"), ("BL0", "BL1")])
        blocks.append(extract_enclosing_subgraphs(graph, links, hops=1))
    return blocks


class TestContentKeys:
    def test_resized_copy_under_another_name_hits_on_dspd(self, twin_blocks):
        original, resized = twin_blocks
        cache = PECache()
        attach_pe_batch(original, "dspd", cache=cache)
        # Four links, one repeated: one lookup per distinct key.
        assert cache.hits == 0 and cache.misses == 3
        attach_pe_batch(resized, "dspd", cache=cache)
        assert cache.hits == 3 and cache.misses == 3
        assert resized.pe.tobytes() == original.pe.tobytes()

    def test_changed_width_misses_on_stats(self, twin_blocks):
        original, resized = twin_blocks
        cache = PECache()
        attach_pe_batch(original, "stats", cache=cache)
        misses = cache.misses
        attach_pe_batch(resized, "stats", cache=cache)
        assert cache.misses > misses
        assert not np.array_equal(original[0].pe, resized[0].pe)
        np.testing.assert_array_equal(
            resized.pe, compute_pe_batch(resized, "stats"))

    def test_plugin_kind_is_not_cached(self, twin_blocks):
        from repro.api import ENCODINGS

        def degree_encoding(subgraph):
            return np.bincount(subgraph.edge_index.ravel(),
                               minlength=subgraph.num_nodes)[:, None]

        degree_encoding.dim = 1
        block = twin_blocks[0]
        cache = PECache()
        ENCODINGS.register("test_uncached_degree", degree_encoding)
        try:
            attach_pe_batch(block, "test_uncached_degree", cache=cache)
            attach_pe_batch(list(block), "test_uncached_degree", cache=cache)
        finally:
            ENCODINGS.unregister("test_uncached_degree")
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert block.pe.dtype == np.float64
        np.testing.assert_array_equal(block[0].pe[:, 0],
                                      degree_encoding(block[0])[:, 0])

    def test_segment_keys_match_the_per_subgraph_oracle(self, small_design):
        def lone(num_nodes, edges, anchors):
            return Subgraph(node_ids=np.arange(num_nodes),
                            node_types=np.zeros(num_nodes, dtype=np.int64),
                            edge_index=np.array(edges, dtype=np.int64).reshape(2, -1),
                            edge_types=np.zeros(len(edges[0]) if edges else 0, dtype=np.int64),
                            anchors=anchors, node_stats=np.arange(num_nodes * 13.0).reshape(-1, 13))

        graph = small_design.graph
        subgraphs = [
            lone(3, [], (0, 1)),                   # edge-less
            lone(1, [], (0, 0)),                   # single node
            lone(3, [[0, 1, 2], [1, 1, 0]], (0, 2)),  # with a self-loop
            *extract_node_subgraphs(graph, [graph.node_index("BL0")], hops=2),  # (0, 0)
            *extract_enclosing_subgraphs(graph, graph.links[:3], hops=1),
        ]
        block = collate(subgraphs)
        for kind in ("dspd", "drnl", "rwse", "stats"):
            assert pe_cache_keys(block, kind) == [pe_cache_key(s, kind) for s in subgraphs]
        assert len(set(pe_cache_keys(block, "dspd"))) == len(subgraphs)

    def test_misses_are_computed_once_and_stored_as_copies(self, samples, monkeypatch):
        import repro.core.data as data

        block = collate(samples[:4] + samples[:4])
        computed = []
        encode = data.compute_pe_batch
        monkeypatch.setattr(data, "compute_pe_batch",
                            lambda b, kind: computed.append(b.num_graphs) or encode(b, kind))
        cache = PECache()
        attach_pe_batch(block, "dspd", cache=cache)
        distinct = len(set(pe_cache_keys(block, "dspd")))
        assert distinct < block.num_graphs
        assert computed == [distinct]
        assert cache.misses == distinct and cache.hits == 0
        assert all(value.base is None for value in cache._store.values())
        assert block.pe.tobytes() == encode(block, "dspd").tobytes()
        attach_pe_batch(block, "dspd", cache=cache)
        assert computed == [distinct] and cache.hits == distinct


class TestSubgraphDataset:
    def test_from_samples_roundtrip(self, samples):
        dataset = SubgraphDataset.from_samples(samples)
        assert len(dataset) == len(samples)
        assert dataset[0] is samples[0]
        assert dataset[-1] is samples[-1]
        assert list(dataset) == samples
        np.testing.assert_allclose(dataset.labels(), [s.label for s in samples])
        np.testing.assert_allclose(dataset.targets(), [s.target for s in samples])

    def test_bool_and_out_of_range(self, samples):
        assert SubgraphDataset.from_samples(samples)
        assert not SubgraphDataset.from_samples([])
        with pytest.raises(IndexError):
            SubgraphDataset.from_samples(samples)[len(samples)]

    def test_subset_and_shuffle(self, samples):
        dataset = SubgraphDataset.from_samples(samples)
        sub = dataset.subset([2, 0, 5])
        assert len(sub) == 3
        assert sub[0] is samples[2] and sub[2] is samples[5]
        shuffled = dataset.shuffled(rng=0)
        assert len(shuffled) == len(dataset)
        assert sorted(s.label for s in shuffled) == sorted(s.label for s in samples)

    def test_split_head_tail(self, samples):
        dataset = SubgraphDataset.from_samples(samples)
        head, tail = dataset.split(0.25)
        assert len(head) == int(round(len(samples) * 0.25))
        assert len(head) + len(tail) == len(samples)
        assert head[0] is samples[0]

    def test_lazy_from_links_deterministic(self, small_design, fresh_cache):
        graph = small_design.graph
        links = graph.links[:10]
        dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd", seed=5)
        assert len(dataset) == 10
        first = dataset[3]
        second = dataset[3]
        np.testing.assert_array_equal(first.node_ids, second.node_ids)
        np.testing.assert_allclose(first.pe, second.pe)
        # Identical extraction means the PE cache served the second access.
        assert fresh_cache.hits >= 1

    def test_lazy_labels_without_extraction(self, small_design):
        graph = small_design.graph
        links = graph.links[:6]
        dataset = SubgraphDataset.from_links(graph, links, pe_kind=None)
        np.testing.assert_allclose(dataset.labels(), [l.label for l in links])
        np.testing.assert_array_equal(dataset.link_types(), [l.link_type for l in links])
        assert not dataset._memo  # labels came from the links, not extraction

    def test_materialize_matches_lazy(self, small_design):
        graph = small_design.graph
        dataset = SubgraphDataset.from_links(graph, graph.links[:5], pe_kind=None, seed=1)
        materialized = dataset.materialize()
        for a, b in zip(dataset, materialized):
            np.testing.assert_array_equal(a.node_ids, b.node_ids)

    def test_lazy_matches_batched_extraction(self, small_design):
        graph = small_design.graph
        links = graph.links[:8]
        dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind=None)
        batched = extract_enclosing_subgraphs(graph, links, hops=1)
        for lazy_sample, batch_sample in zip(dataset, batched):
            np.testing.assert_array_equal(lazy_sample.node_ids, batch_sample.node_ids)
            np.testing.assert_array_equal(lazy_sample.edge_index, batch_sample.edge_index)

    def test_unprefetched_index_is_a_one_element_batch(self, small_design):
        """``dataset[i]`` outside a prefetched block extracts link ``i`` as a
        batch of one under the RNG ``[seed, i]``; uncapped, it equals the
        prefetched block's sample byte for byte (PE included)."""
        from repro.graph import compute_pe

        def assert_same_bytes(got, want):
            for name in ("node_ids", "node_types", "edge_index", "edge_types",
                         "node_stats", "pe"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
            assert (got.anchors, got.label, got.target, got.link_type) == \
                (want.anchors, want.label, want.target, want.link_type)

        graph = small_design.graph
        links = graph.links[:24]
        seed = 7
        capped = SubgraphDataset.from_links(graph, links, max_nodes_per_hop=3,
                                            seed=seed, cache=PECache())
        shrunk = 0
        for i, link in enumerate(links):
            [want] = extract_enclosing_subgraphs(
                graph, [link], max_nodes_per_hop=3,
                rng=np.random.default_rng([seed, i]))
            compute_pe(want, "dspd")
            assert_same_bytes(capped[i], want)
            shrunk += want.num_nodes < extract_enclosing_subgraphs(graph, [link])[0].num_nodes
        assert shrunk, "the hub cap never triggered; the RNG stream went untested"

        lazy = SubgraphDataset.from_links(graph, links, seed=seed, cache=PECache())
        block = SubgraphDataset.from_links(graph, links, seed=seed,
                                           cache=PECache()).take(range(len(links)))
        for i in range(len(links)):
            assert_same_bytes(lazy[i], block[i])

    def test_as_dataset_idempotent(self, samples):
        dataset = SubgraphDataset.from_samples(samples)
        assert as_dataset(dataset) is dataset
        assert as_dataset(samples)[0] is samples[0]
        loader = DataLoader(dataset, batch_size=4)
        assert as_dataset(loader) is dataset


class TestDataLoader:
    def test_batches_cover_all_samples(self, samples):
        loader = DataLoader(samples, batch_size=16, shuffle=False)
        batches = list(loader)
        assert len(batches) == len(loader)
        assert sum(b.num_graphs for b in batches) == len(samples)
        np.testing.assert_allclose(
            np.concatenate([b.labels for b in batches]),
            [s.label for s in samples],
        )

    def test_drop_last(self, samples):
        count = (len(samples) // 16) * 16
        loader = DataLoader(samples[: count + 3], batch_size=16, shuffle=False, drop_last=True)
        assert sum(b.num_graphs for b in loader) == count

    def test_shuffle_changes_between_epochs(self, samples):
        loader = DataLoader(samples, batch_size=len(samples), shuffle=True, rng=0)
        first = next(iter(loader)).labels
        second = next(iter(loader)).labels
        assert not np.array_equal(first, second)

    def test_shuffle_deterministic_given_rng(self, samples):
        a = next(iter(DataLoader(samples, batch_size=32, shuffle=True, rng=7))).labels
        b = next(iter(DataLoader(samples, batch_size=32, shuffle=True, rng=7))).labels
        np.testing.assert_allclose(a, b)

    def test_invalid_batch_size(self, samples):
        with pytest.raises(ValueError):
            DataLoader(samples, batch_size=0)
