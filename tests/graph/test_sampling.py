"""Tests for negative-link generation, balancing and enclosing-subgraph sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    LINK_NET_NET,
    LINK_PIN_NET,
    LINK_PIN_PIN,
    Link,
    balance_links,
    default_link_pipeline,
    extract_enclosing_subgraphs,
    extract_node_subgraphs,
    inject_link_edges,
    link_type_histogram,
    permute_negative_links,
)


def negatives_of(graph, ratio, rng):
    """The paper's non-strict permute-endpoint negatives of a design."""
    return permute_negative_links(graph.links, graph.num_nodes, ratio=ratio, rng=rng,
                                  strict=False)


def enclosing(graph, link, **kwargs):
    """The enclosing subgraph of one link (a one-element batch)."""
    return extract_enclosing_subgraphs(graph, [link], **kwargs)[0]


def sample_links(graph, rng, **kwargs):
    """One shuffled subgraph per positive or negative link (the paper's recipe)."""
    return default_link_pipeline(**kwargs).run(graph, rng=rng)


class TestNegativeLinks:
    def test_negatives_not_positives(self, small_design):
        graph = small_design.graph
        negatives = negatives_of(graph, ratio=0.5, rng=0)
        positive_keys = {l.key() for l in graph.links}
        assert negatives
        assert all(n.key() not in positive_keys for n in negatives)

    def test_negatives_have_zero_label_and_cap(self, small_design):
        negatives = negatives_of(small_design.graph, ratio=0.2, rng=0)
        assert all(n.label == 0.0 and n.capacitance == 0.0 for n in negatives)

    def test_negatives_preserve_link_type_distribution(self, small_design):
        graph = small_design.graph
        negatives = negatives_of(graph, ratio=1.0, rng=0)
        pos_hist = link_type_histogram(graph.links)
        neg_hist = link_type_histogram(negatives)
        assert set(neg_hist) <= set(pos_hist)
        for kind, count in neg_hist.items():
            assert count <= pos_hist[kind]

    def test_negative_ratio_controls_count(self, small_design):
        graph = small_design.graph
        half = negatives_of(graph, ratio=0.5, rng=0)
        full = negatives_of(graph, ratio=1.0, rng=0)
        assert len(full) > len(half)

    def test_negatives_endpoint_types_match_link_type(self, small_design):
        graph = small_design.graph
        negatives = negatives_of(graph, ratio=0.3, rng=0)
        for link in negatives:
            types = sorted((graph.node_types[link.source], graph.node_types[link.target]))
            if link.link_type == LINK_NET_NET:
                assert types == [0, 0]
            elif link.link_type == LINK_PIN_NET:
                assert types == [0, 2]
            elif link.link_type == LINK_PIN_PIN:
                assert types == [2, 2]


class TestBalanceLinks:
    def test_balanced_counts_equal_smallest_class(self):
        links = ([Link(0, 1, LINK_PIN_NET)] * 50 + [Link(2, 3, LINK_PIN_PIN)] * 20
                 + [Link(4, 5, LINK_NET_NET)] * 5)
        balanced = balance_links(links, rng=0)
        hist = link_type_histogram(balanced)
        assert set(hist.values()) == {5}

    def test_explicit_budget(self):
        links = [Link(0, 1, LINK_PIN_NET)] * 50 + [Link(2, 3, LINK_NET_NET)] * 30
        balanced = balance_links(links, per_type=10, rng=0)
        assert len(balanced) == 20

    def test_empty_input(self):
        assert balance_links([], rng=0) == []


class TestEnclosingSubgraph:
    def test_anchors_are_first_two_nodes(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        subgraph = enclosing(graph, link, hops=1)
        assert subgraph.anchors == (0, 1)
        assert subgraph.node_ids[0] == link.source
        assert subgraph.node_ids[1] == link.target
        subgraph.validate()

    def test_contains_one_hop_neighbourhood(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        subgraph = enclosing(graph, link, hops=1, add_target_edge=False)
        expected = set(graph.neighbors(link.source).tolist()) | \
            set(graph.neighbors(link.target).tolist()) | {link.source, link.target}
        assert set(subgraph.node_ids.tolist()) == expected

    def test_two_hops_superset_of_one_hop(self, small_design):
        graph = small_design.graph
        link = graph.links[1]
        one = enclosing(graph, link, hops=1, add_target_edge=False)
        two = enclosing(graph, link, hops=2, add_target_edge=False)
        assert set(one.node_ids.tolist()) <= set(two.node_ids.tolist())

    def test_target_edge_added_between_anchors(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        subgraph = enclosing(graph, link, hops=1, add_target_edge=True)
        pairs = set(map(tuple, subgraph.edge_index.T.tolist()))
        assert (0, 1) in pairs or (1, 0) in pairs
        assert subgraph.edge_types[-1] == link.link_type

    def test_edge_types_preserved(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        subgraph = enclosing(graph, link, hops=1, add_target_edge=False)
        for (s, t), edge_type in zip(subgraph.edge_index.T, subgraph.edge_types):
            assert edge_type in (0, 1)
            global_s, global_t = subgraph.node_ids[s], subgraph.node_ids[t]
            assert global_t in graph.neighbors(global_s)

    def test_max_nodes_per_hop_caps_size(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        capped = enclosing(graph, link, hops=2, max_nodes_per_hop=3, rng=0)
        full = enclosing(graph, link, hops=2, rng=0)
        assert capped.num_nodes <= full.num_nodes

    def test_label_and_target_copied(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        subgraph = enclosing(graph, link)
        assert subgraph.label == 1.0
        assert subgraph.target == pytest.approx(link.capacitance)
        assert subgraph.link_type == link.link_type

    def test_node_stats_sliced(self, small_design):
        graph = small_design.graph
        subgraph = enclosing(graph, graph.links[0])
        np.testing.assert_allclose(subgraph.node_stats,
                                   graph.node_stats[subgraph.node_ids])


class TestNodeSubgraph:
    def test_single_anchor(self, small_design):
        graph = small_design.graph
        node = int(graph.nodes_of_type(0)[0])
        subgraph = extract_node_subgraphs(graph, [node], hops=2, targets=[0.5])[0]
        assert subgraph.anchors == (0, 0)
        assert subgraph.node_ids[0] == node
        assert subgraph.target == 0.5
        subgraph.validate()

    def test_contains_two_hop_ball(self, small_design):
        graph = small_design.graph
        node = int(graph.nodes_of_type(0)[1])
        subgraph = extract_node_subgraphs(graph, [node], hops=2)[0]
        expected = set(graph.k_hop_nodes([node], 2).tolist())
        assert set(subgraph.node_ids.tolist()) == expected


class TestInjection:
    def test_injected_edges_added(self, small_design):
        graph = small_design.graph
        injected = inject_link_edges(graph, graph.links[:10])
        assert injected.num_edges == graph.num_edges + 10
        assert injected.num_nodes == graph.num_nodes

    def test_injection_with_empty_list_returns_same_graph(self, small_design):
        graph = small_design.graph
        assert inject_link_edges(graph, []) is graph

    def test_original_graph_untouched(self, small_design):
        graph = small_design.graph
        before = graph.num_edges
        inject_link_edges(graph, graph.links[:5])
        assert graph.num_edges == before


class TestSampleLinkDataset:
    def test_balanced_positive_negative_split(self, small_design):
        samples = sample_links(small_design.graph, 0, max_links=60)
        labels = np.array([s.label for s in samples])
        assert 0.4 <= labels.mean() <= 0.6
        assert len(samples) > 60

    def test_max_links_caps_positives(self, small_design):
        samples = sample_links(small_design.graph, 0, max_links=30)
        positives = sum(1 for s in samples if s.label == 1.0)
        assert positives <= 30

    def test_injected_sampling_gives_larger_subgraphs(self, small_design):
        plain = sample_links(small_design.graph, 0, max_links=30, inject_links=False)
        injected = sample_links(small_design.graph, 0, max_links=30, inject_links=True)
        assert np.mean([s.num_edges for s in injected]) > np.mean([s.num_edges for s in plain])

    def test_all_samples_validate(self, small_design):
        for sample in sample_links(small_design.graph, 0, max_links=20):
            sample.validate()


@settings(max_examples=5, deadline=None)
@given(max_links=st.integers(5, 40))
def test_sampling_positive_cap_property(max_links):
    from repro.netlist import ssram, place_circuit, extract_parasitics
    from repro.graph import netlist_to_graph

    # Build once and memoise on the function object.
    if not hasattr(test_sampling_positive_cap_property, "_graph"):
        circuit = ssram(rows=3, cols=3).flatten()
        placement = place_circuit(circuit, rng=0)
        report = extract_parasitics(placement, rng=1)
        test_sampling_positive_cap_property._graph = netlist_to_graph(circuit, report)
    graph = test_sampling_positive_cap_property._graph
    samples = sample_links(graph, 0, max_links=max_links)
    positives = sum(1 for s in samples if s.label == 1.0)
    assert positives <= max_links
