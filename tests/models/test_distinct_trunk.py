"""The distinct-subgraph trunk: ``CircuitGPS.encode`` runs the GPS trunk once
per distinct subgraph of an eval batch (``SubgraphBatch.distinct``)."""

import copy
import pickle

import numpy as np
import pytest

from repro.graph import (
    LINK_NET_NET,
    Link,
    Subgraph,
    collate,
    compute_pe,
    default_link_pipeline,
    extract_enclosing_subgraphs,
    extract_node_subgraphs,
    netlist_to_graph,
)
from repro.graph import batch as batch_module
from repro.models import CircuitGPS
from repro.models.circuitgps import _directed
from repro.netlist import Mosfet, ssram
from repro.nn import BatchNorm1d, Tensor, concat, no_grad, use_dtype
from repro.nn import functional as F

TASKS = ("link", "edge_regression", "node_regression")


def reference_forward(model, batch, task):
    """Every node row through the trunk, then the task head (test oracle).

    A copy of the trunk loop as it was before the distinct-subgraph trunk:
    encoders, directed edges and GPS layers over the whole batch.
    """
    node_embedding = model.node_encoder(batch.node_types)
    if model.pe_encoder is not None:
        x = concat([model.pe_encoder(Tensor(batch.pe)), node_embedding], axis=1)
    else:
        x = node_embedding
    edge_index, edge_types = _directed(batch.edge_index, batch.edge_types)
    edge_attr = model.edge_encoder(edge_types) if edge_types.size else Tensor(
        np.zeros((0, model.dim)))
    seg = F.segment_info(batch.batch)
    for layer in model.layers:
        x, edge_attr = layer(x, edge_attr, edge_index, seg)
    if task == "link":
        return model.link_head(x, seg, batch.anchors)
    head = model.edge_head if task == "edge_regression" else model.node_head
    return head(x, batch.node_stats, batch.node_types, seg, batch.anchors)


def make_model(**overrides):
    options = dict(dim=24, num_layers=2, pe_kind="dspd", pe_hidden=8,
                   attention="transformer", dropout=0.2, rng=0)
    options.update(overrides)
    return CircuitGPS(**options)


@pytest.fixture(scope="module")
def samples(small_design):
    samples = default_link_pipeline(max_links=20, max_nodes_per_hop=15).run(
        small_design.graph, rng=0)
    for sample in samples:
        compute_pe(sample, "dspd")
    return samples


@pytest.fixture
def repeated_batch(samples):
    """A batch in which most subgraphs repeat, in scattered positions."""
    picked = samples[:8] + samples[:8][::-1] + samples[2:5] + samples[8:12]
    return collate(picked)


def assert_matches_reference(model, batch, atol):
    for task in TASKS:
        with no_grad():
            got = model(batch, task=task).data
            want = reference_forward(model, batch, task).data
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestEvalParity:
    def test_float64_matches_full_batch_trunk(self, repeated_batch):
        distinct = repeated_batch.distinct()
        assert 1 < distinct.count < repeated_batch.num_graphs
        model = make_model().eval()
        assert_matches_reference(model, repeated_batch, atol=1e-12)

    def test_float32_matches_full_batch_trunk(self, repeated_batch):
        model = make_model().cast(np.float32).eval()
        with use_dtype(np.float32):
            assert_matches_reference(model, repeated_batch, atol=1e-5)

    def test_gatedgcn_only_and_no_pe(self, repeated_batch):
        for model in (make_model(attention="none"), make_model(mpnn="none"),
                      make_model(pe_kind="none", attention="performer")):
            assert_matches_reference(model.eval(), repeated_batch, atol=1e-12)

    def test_repeats_get_identical_embeddings(self, repeated_batch):
        model = make_model().eval()
        with no_grad():
            embeddings = model.encode(repeated_batch).data
        assert embeddings.shape == (repeated_batch.num_nodes, model.dim)
        # Graphs 0 and 15 are the same sample (samples[:8] then reversed).
        first = embeddings[repeated_batch.batch == 0]
        np.testing.assert_array_equal(first, embeddings[repeated_batch.batch == 15])


class TestTrainMode:
    def test_train_forward_never_dedups_and_is_bit_identical(
            self, repeated_batch, monkeypatch):
        calls = {"distinct": 0}
        original = batch_module.SubgraphBatch.distinct

        def counting(self):
            calls["distinct"] += 1
            return original(self)

        monkeypatch.setattr(batch_module.SubgraphBatch, "distinct", counting)
        model = make_model().train()
        oracle = copy.deepcopy(model)
        for task in TASKS:
            got = model(repeated_batch, task=task).data
            want = reference_forward(oracle, repeated_batch, task).data
            np.testing.assert_array_equal(got, want)
        assert calls["distinct"] == 0
        norms = [m for m in model.modules() if isinstance(m, BatchNorm1d)]
        oracle_norms = [m for m in oracle.modules() if isinstance(m, BatchNorm1d)]
        assert norms
        for bn, bn_oracle in zip(norms, oracle_norms):
            np.testing.assert_array_equal(bn.running_mean, bn_oracle.running_mean)
            np.testing.assert_array_equal(bn.running_var, bn_oracle.running_var)

    def test_train_mode_gradients_match(self, repeated_batch):
        model = make_model(dropout=0.0).train()
        oracle = copy.deepcopy(model)
        (model(repeated_batch, task="link") ** 2).sum().backward()
        (reference_forward(oracle, repeated_batch, "link") ** 2).sum().backward()
        for p, q in zip(model.parameters(), oracle.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad)


class TestDigestInputs:
    @pytest.fixture(scope="class")
    def twin_subgraphs(self):
        """One link's subgraph in a circuit and in a copy with resized devices."""
        original = ssram(rows=4, cols=4).flatten()
        resized = copy.deepcopy(original)
        on_bitline = [d for d in resized.devices
                      if isinstance(d, Mosfet) and "BL0" in d.nets]
        on_bitline[0].width *= 4.0
        on_bitline[0].length *= 2.0
        subgraphs = []
        for circuit in (original, resized):
            graph = netlist_to_graph(circuit)
            link = Link(source=graph.node_index("BL0"), target=graph.node_index("BL1"),
                        link_type=LINK_NET_NET, label=0.0)
            subgraphs.extend(extract_enclosing_subgraphs(graph, [link], hops=1))
        return subgraphs

    def test_same_topology_different_stats_pe_not_merged(self, twin_subgraphs):
        a, b = (copy.deepcopy(s) for s in twin_subgraphs)
        np.testing.assert_array_equal(a.node_types, b.node_types)
        np.testing.assert_array_equal(a.edge_index, b.edge_index)
        np.testing.assert_array_equal(a.edge_types, b.edge_types)
        compute_pe(a, "stats")
        compute_pe(b, "stats")
        assert not np.array_equal(a.pe, b.pe)
        assert collate([a, b, a]).distinct().count == 2

    def test_topology_pe_merges_the_same_twins(self, twin_subgraphs):
        a, b = (copy.deepcopy(s) for s in twin_subgraphs)
        compute_pe(a, "dspd")
        compute_pe(b, "dspd")
        batch = collate([a, b])
        assert batch.distinct().count == 1
        # The heads still see each subgraph's own statistics.
        model = make_model(pe_kind="dspd").eval()
        assert_matches_reference(model, batch, atol=1e-12)

    def test_anchors_are_part_of_the_key(self, samples):
        swapped = copy.deepcopy(samples[0])
        swapped.anchors = (swapped.anchors[1], swapped.anchors[0])
        assert collate([samples[0], swapped]).distinct().count == 2


def isolated_node(node_type, pe_dim):
    """A one-node, edge-less subgraph (a node-task sample of an isolated node)."""
    return Subgraph(node_ids=np.array([0]), node_types=np.array([node_type]),
                    edge_index=np.zeros((2, 0), dtype=np.int64),
                    edge_types=np.zeros(0, dtype=np.int64), anchors=(0, 0),
                    node_stats=np.zeros((1, 13)), pe=np.zeros((1, pe_dim)))


class TestEdgeCases:
    def test_single_anchor_node_subgraphs(self, small_design):
        graph = small_design.graph
        nodes = [graph.node_index(name) for name in ("BL0", "WL0", "BL0", "BL1")]
        subgraphs = list(extract_node_subgraphs(graph, nodes, hops=2))
        for subgraph in subgraphs:
            compute_pe(subgraph, "dspd")
        batch = collate(subgraphs)
        # The BL0 and BL1 columns are mirror images, so their subgraphs match.
        assert batch.distinct().count == 2
        assert_matches_reference(make_model().eval(), batch, atol=1e-12)

    def test_edgeless_subgraphs(self, samples):
        pe_dim = samples[0].pe.shape[1]
        lone = [isolated_node(0, pe_dim), isolated_node(2, pe_dim), isolated_node(0, pe_dim)]
        batch = collate(lone + samples[:2] + lone)
        assert batch.distinct().count == 4
        assert_matches_reference(make_model().eval(), batch, atol=1e-12)
        only_edgeless = collate(lone)
        assert only_edgeless.distinct().count == 2
        assert_matches_reference(make_model(mpnn="none").eval(), only_edgeless, atol=1e-12)

    def test_all_distinct_batch_runs_the_full_batch(self, samples, monkeypatch):
        batch = collate(samples[:10])
        distinct = batch.distinct()
        assert distinct.count == batch.num_graphs
        assert distinct.batch is batch
        model = make_model().eval()
        trunk_rows = []
        trunk = CircuitGPS._trunk

        def recording(self, rows):
            trunk_rows.append(rows.num_nodes)
            return trunk(self, rows)

        monkeypatch.setattr(CircuitGPS, "_trunk", recording)
        for task in TASKS:
            with no_grad():
                np.testing.assert_array_equal(model(batch, task=task).data,
                                              reference_forward(model, batch, task).data)
        assert trunk_rows == [batch.num_nodes] * len(TASKS)

    def test_all_identical_batch(self, samples):
        batch = collate([samples[3]] * 7)
        distinct = batch.distinct()
        assert distinct.count == 1
        assert distinct.batch.num_graphs == 1
        assert distinct.batch.num_nodes == samples[3].num_nodes
        model = make_model().eval()
        assert_matches_reference(model, batch, atol=1e-12)
        with no_grad():
            embeddings = model.encode(batch).data.reshape(7, samples[3].num_nodes, -1)
        assert np.all(embeddings == embeddings[0])

    def test_representatives_are_the_collated_first_occurrences(self, samples):
        picked = [samples[0], samples[1], samples[0], samples[2], samples[1]]
        distinct = collate(picked).distinct()
        expected = collate([samples[0], samples[1], samples[2]])
        for name in ("node_types", "edge_index", "edge_types", "batch", "anchors",
                     "pe", "node_stats", "labels", "targets", "link_types"):
            np.testing.assert_array_equal(getattr(distinct.batch, name),
                                          getattr(expected, name))
        np.testing.assert_array_equal(distinct.inverse, [0, 1, 0, 2, 1])
        assert len(set(distinct.keys)) == distinct.count == 3


class TestCaching:
    def test_computed_once_per_batch(self, repeated_batch, monkeypatch):
        calls = {"distinct": 0}
        compute = batch_module._distinct_subgraphs

        def counting(batch):
            calls["distinct"] += 1
            return compute(batch)

        monkeypatch.setattr(batch_module, "_distinct_subgraphs", counting)
        model = make_model().eval()
        with no_grad():
            for task in TASKS:
                model(repeated_batch, task=task)
        assert calls["distinct"] == 1

    def test_pickling_drops_the_cache(self, repeated_batch):
        first = repeated_batch.distinct()
        assert "_distinct_cache" in repeated_batch.__dict__
        clone = pickle.loads(pickle.dumps(repeated_batch))
        assert "_distinct_cache" not in clone.__dict__
        assert "_segments_cache" not in clone.__dict__
        again = clone.distinct()
        assert again.keys == first.keys
        np.testing.assert_array_equal(again.inverse, first.inverse)
