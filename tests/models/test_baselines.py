"""Tests for the ParaGraph and DLPL-Cap baseline models."""

import numpy as np
import pytest

from repro.models import DLPLCap, FullGraphEncoder, ParaGraph
from repro.nn import no_grad


@pytest.fixture(scope="module")
def graph_inputs(small_design):
    graph = small_design.graph
    return FullGraphEncoder.graph_inputs(graph, graph.node_stats), graph


class TestFullGraphEncoder:
    def test_embedding_shape(self, graph_inputs):
        inputs, graph = graph_inputs
        encoder = FullGraphEncoder(dim=16, num_layers=2, rng=0)
        out = encoder(inputs)
        assert out.shape == (graph.num_nodes, 16)
        assert np.all(np.isfinite(out.data))

    def test_directed_edges_doubled(self, graph_inputs):
        inputs, graph = graph_inputs
        assert inputs["edge_index"].shape[1] == 2 * graph.num_edges


class TestParaGraph:
    def test_link_logits_shape(self, graph_inputs):
        inputs, graph = graph_inputs
        model = ParaGraph(dim=16, num_layers=2, rng=0)
        pairs = np.array([[l.source, l.target] for l in graph.links[:20]])
        embeddings = model.encode(inputs)
        assert model.link_logits(embeddings, pairs).shape == (20,)

    def test_edge_regression_uses_soft_ensemble(self, graph_inputs):
        inputs, graph = graph_inputs
        model = ParaGraph(dim=16, num_layers=2, num_magnitude_bins=3, rng=0)
        pairs = np.array([[l.source, l.target] for l in graph.links[:10]])
        embeddings = model.encode(inputs)
        out = model.edge_regression(embeddings, pairs)
        assert out.shape == (10,)
        assert len(model.experts) == 3

    def test_node_regression_shape(self, graph_inputs):
        inputs, graph = graph_inputs
        model = ParaGraph(dim=16, num_layers=2, rng=0)
        embeddings = model.encode(inputs)
        nodes = np.arange(15)
        assert model.node_regression(embeddings, nodes).shape == (15,)

    def test_gradients_flow_to_encoder(self, graph_inputs):
        inputs, graph = graph_inputs
        model = ParaGraph(dim=8, num_layers=1, rng=0)
        pairs = np.array([[l.source, l.target] for l in graph.links[:5]])
        loss = (model.link_logits(model.encode(inputs), pairs) ** 2).sum()
        loss.backward()
        assert any(p.grad is not None for p in model.encoder.parameters())


class TestDLPLCap:
    def test_has_five_experts_by_default(self):
        model = DLPLCap(dim=8, num_layers=1, rng=0)
        assert model.num_experts == 5
        assert len(model.experts) == 5
        assert len(model.node_experts) == 5

    def test_router_distribution_shape(self, graph_inputs):
        inputs, graph = graph_inputs
        model = DLPLCap(dim=16, num_layers=2, rng=0)
        pairs = np.array([[l.source, l.target] for l in graph.links[:12]])
        logits = model.router_logits(model.encode(inputs), pairs)
        assert logits.shape == (12, 5)

    def test_edge_and_node_regression_shapes(self, graph_inputs):
        inputs, graph = graph_inputs
        model = DLPLCap(dim=16, num_layers=2, rng=0)
        with no_grad():
            embeddings = model.encode(inputs)
            pairs = np.array([[l.source, l.target] for l in graph.links[:7]])
            assert model.edge_regression(embeddings, pairs).shape == (7,)
            assert model.node_regression(embeddings, np.arange(9)).shape == (9,)


class TestWholeDesignBatches:
    def test_trainer_rejects_circuitgps_on_a_design_batch(self, small_design, tiny_config):
        from repro.core import Trainer, build_design_batch
        from repro.models import CircuitGPS

        batch = build_design_batch(small_design, "link", tiny_config.data, rng=0)
        trainer = Trainer(CircuitGPS(dim=16, num_layers=1, attention="none"), task="link",
                          config=tiny_config.train)
        with pytest.raises(TypeError):
            trainer.fit([batch], epochs=1)

    @pytest.mark.parametrize("model_cls", [ParaGraph, DLPLCap])
    def test_forward_dispatches_a_design_batch_to_the_task_head(self, model_cls,
                                                                small_design, tiny_config):
        from repro.core import build_design_batch

        model = model_cls(dim=12, num_layers=1, rng=0)
        batch = build_design_batch(small_design, "edge_regression", tiny_config.data, rng=0)
        with no_grad():
            embeddings = model.encode(batch.inputs)
            expected = {
                "link": model.link_logits(embeddings, batch.pairs),
                "edge_regression": model.edge_regression(embeddings, batch.pairs),
                "node_regression": model.node_regression(embeddings, batch.pairs[:, 0]),
            }
            for task, want in expected.items():
                np.testing.assert_array_equal(model(batch, task=task).data, want.data)
            with pytest.raises(ValueError):
                model(batch, task="segmentation")
