"""Tests for the dataset/loader subsystem and the positional-encoding cache."""

import copy

import numpy as np
import pytest

from repro.core.data import (
    DataLoader,
    LinkRequest,
    PECache,
    SubgraphDataset,
    as_dataset,
    attach_pe_batch,
    default_pe_cache,
    pe_cache_keys,
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
    """The process-wide default cache, emptied for the test."""
    cache = default_pe_cache()
    cache.clear()
    yield cache


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

    def test_split_edges_and_invalid_fraction(self, samples):
        dataset = SubgraphDataset.from_samples(samples)
        empty, everything = dataset.split(0.0)
        assert len(empty) == 0 and list(everything) == samples
        everything, empty = dataset.split(1.0)
        assert len(empty) == 0 and list(everything) == samples
        for fraction in (-0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                dataset.split(fraction)

    def test_split_takes_no_rng(self, samples):
        """A random split is ``shuffled(rng).split``; an ``rng`` passed to
        ``split`` itself used to be accepted and silently ignored."""
        with pytest.raises(TypeError):
            SubgraphDataset.from_samples(samples).split(0.5, rng=0)

    def test_shuffled_is_a_seeded_permutation_with_the_same_pe_settings(self, samples):
        dataset = SubgraphDataset.from_samples(samples, pe_kind="dspd")
        first, second = dataset.shuffled(rng=3), dataset.shuffled(rng=3)
        assert [id(s) for s in first] == [id(s) for s in second]
        assert [id(s) for s in first] != [id(s) for s in samples]
        assert sorted(map(id, first)) == sorted(map(id, samples))
        assert list(dataset) == samples            # the original keeps its order
        for view in (first, *first.split(0.5)):
            assert view.pe_kind == "dspd"

    def test_labels_and_targets_follow_the_shuffle(self, samples):
        shuffled = SubgraphDataset.from_samples(samples).shuffled(rng=1)
        np.testing.assert_array_equal(shuffled.labels(), [s.label for s in shuffled])
        np.testing.assert_array_equal(shuffled.targets(), [s.target for s in shuffled])
        assert shuffled.labels().dtype == np.float64

    def test_take_attaches_missing_pe_in_one_pass(self, samples, fresh_cache):
        cache = fresh_cache
        bare = [copy.copy(s) for s in samples[:6]]
        for s in bare[:4]:
            s.pe = None
        kept = bare[4].pe
        dataset = SubgraphDataset.from_samples(bare, pe_kind="dspd")
        taken = dataset.take([3, 0, 4])
        assert [s is b for s, b in zip(taken, (bare[3], bare[0], bare[4]))] == [True] * 3
        assert cache.misses == 2 and cache.hits == 0   # only the two bare samples
        assert bare[4].pe is kept
        for s in taken:
            assert s.pe.tobytes() == compute_pe_batch(collate([s]), "dspd").tobytes()
        assert bare[1].pe is None                      # not taken, not encoded

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

    def test_shuffle_changes_between_epochs(self, samples):
        loader = DataLoader(samples, batch_size=len(samples), shuffle=True, rng=0)
        first = next(iter(loader)).labels
        second = next(iter(loader)).labels
        assert not np.array_equal(first, second)

    def test_shuffle_deterministic_given_rng(self, samples):
        a = next(iter(DataLoader(samples, batch_size=32, shuffle=True, rng=7))).labels
        b = next(iter(DataLoader(samples, batch_size=32, shuffle=True, rng=7))).labels
        np.testing.assert_allclose(a, b)

    def test_len_counts_the_ragged_last_batch(self, samples):
        loader = DataLoader(samples[:33], batch_size=16, shuffle=False)
        assert len(loader) == 3
        assert [b.num_graphs for b in loader] == [16, 16, 1]

    def test_empty_dataset_yields_no_batches(self):
        loader = DataLoader([], batch_size=4)
        assert len(loader) == 0 and list(loader) == []

    def test_invalid_batch_size(self, samples):
        with pytest.raises(ValueError):
            DataLoader(samples, batch_size=0)


def assert_same_bytes(got, want):
    for name in ("node_ids", "node_types", "edge_index", "edge_types",
                 "node_stats", "pe"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.anchors, got.label, got.target, got.link_type) == \
        (want.anchors, want.label, want.target, want.link_type)


def link_request(graph, links, seed=0, max_nodes_per_hop=None, cache=None):
    return LinkRequest(graph, links, hops=1, max_nodes_per_hop=max_nodes_per_hop,
                       pe_kind="dspd", cache=cache if cache is not None else PECache(),
                       seed=seed)


class TestLinkRequest:
    def test_same_chunk_same_block_from_the_cache(self, small_design):
        graph = small_design.graph
        cache = PECache()
        request = link_request(graph, graph.links[:10], seed=5, cache=cache)
        first = request.take([3, 4, 5])
        misses = cache.misses
        second = request.take([3, 4, 5])
        assert first.node_ids.tobytes() == second.node_ids.tobytes()
        assert first.pe.tobytes() == second.pe.tobytes()
        # Identical extraction means the PE cache served the second take.
        assert cache.misses == misses and cache.hits == misses

    def test_take_matches_batched_extraction(self, small_design):
        graph = small_design.graph
        links = graph.links[:8]
        block = link_request(graph, links).take(range(8))
        batched = extract_enclosing_subgraphs(graph, links, hops=1)
        for taken, expected in zip(block, batched):
            np.testing.assert_array_equal(taken.node_ids, expected.node_ids)
            np.testing.assert_array_equal(taken.edge_index, expected.edge_index)

    def test_chunk_rng_is_seed_length_and_first_index(self, small_design):
        """A capped chunk draws its hub subsampling from the RNG
        ``[seed, len(chunk), chunk[0]]``, byte for byte (PE included);
        uncapped, a one-link chunk equals its row of a larger chunk."""
        graph = small_design.graph
        links = graph.links[:24]
        seed = 7
        capped = link_request(graph, links, seed=seed, max_nodes_per_hop=3)
        shrunk = 0
        for chunk in ([0], [5, 6, 7], list(range(8, 24))):
            want = extract_enclosing_subgraphs(
                graph, [links[i] for i in chunk], max_nodes_per_hop=3,
                rng=np.random.default_rng([seed, len(chunk), chunk[0]]))
            want.pe = compute_pe_batch(want, "dspd")
            got = capped.take(chunk)
            for i in range(len(chunk)):
                assert_same_bytes(got[i], want[i])
            full = extract_enclosing_subgraphs(graph, [links[i] for i in chunk])
            shrunk += int(np.sum(np.diff(want.node_offsets) < np.diff(full.node_offsets)))
        assert shrunk, "the hub cap never triggered; the RNG stream went untested"

        uncapped = link_request(graph, links, seed=seed)
        block = uncapped.take(range(len(links)))
        for i in range(len(links)):
            assert_same_bytes(uncapped.take([i])[0], block[i])
