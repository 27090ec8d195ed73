"""Tests for the CircuitGPS model (encoders, trunk, heads, fine-tuning hooks)."""

import numpy as np
import pytest

from repro.graph import collate, compute_pe, default_link_pipeline
from repro.models import CircuitGPS
from repro.nn import no_grad


@pytest.fixture(scope="module")
def batch(small_design):
    samples = default_link_pipeline(max_links=20, max_nodes_per_hop=15).run(
        small_design.graph, rng=0)
    for sample in samples:
        compute_pe(sample, "dspd")
    return collate(samples[:12])


@pytest.fixture(scope="module")
def model():
    return CircuitGPS(dim=24, num_layers=2, pe_kind="dspd", pe_hidden=8,
                      attention="none", dropout=0.0, rng=0)


class TestForward:
    def test_link_output_shape(self, model, batch):
        out = model(batch, task="link")
        assert out.shape == (batch.num_graphs,)

    def test_regression_output_shapes(self, model, batch):
        assert model(batch, task="edge_regression").shape == (batch.num_graphs,)
        assert model(batch, task="node_regression").shape == (batch.num_graphs,)

    def test_unknown_task_raises(self, model, batch):
        with pytest.raises(ValueError):
            model(batch, task="classification")

    def test_encode_returns_node_embeddings(self, model, batch):
        embeddings = model.encode(batch)
        assert embeddings.shape == (batch.num_nodes, model.dim)

    def test_pe_dimension_mismatch_raises(self, model, batch):
        import copy

        wrong = copy.copy(batch)
        wrong.pe = np.zeros((batch.num_nodes, 3))
        with pytest.raises(ValueError):
            model.encode(wrong)

    def test_pe_none_model_ignores_pe(self, batch):
        model = CircuitGPS(dim=16, num_layers=1, pe_kind="none", attention="none", rng=0)
        out = model(batch, task="link")
        assert out.shape == (batch.num_graphs,)

    def test_dim_must_exceed_pe_hidden(self):
        with pytest.raises(ValueError):
            CircuitGPS(dim=8, pe_hidden=8, rng=0)

    def test_deterministic_in_eval_mode(self, model, batch):
        model.eval()
        with no_grad():
            a = model(batch, task="link").data
            b = model(batch, task="link").data
        np.testing.assert_allclose(a, b)
        model.train()


class TestConfigurationsAndParams:
    @pytest.mark.parametrize("pe_kind", ["none", "dspd", "drnl", "rwse", "lappe", "stats"])
    def test_all_pe_kinds_build(self, pe_kind, small_design):
        samples = default_link_pipeline(max_links=5, max_nodes_per_hop=10).run(
            small_design.graph, rng=0)
        for sample in samples:
            compute_pe(sample, pe_kind)
        model = CircuitGPS(dim=16, num_layers=1, pe_kind=pe_kind, pe_hidden=4,
                           attention="none", rng=0)
        out = model(collate(samples), task="link")
        assert np.all(np.isfinite(out.data))

    def test_parameter_count_grows_with_width_and_depth(self):
        small = CircuitGPS(dim=16, num_layers=1, attention="none", rng=0)
        wide = CircuitGPS(dim=32, num_layers=1, attention="none", rng=0)
        deep = CircuitGPS(dim=16, num_layers=3, attention="none", rng=0)
        assert wide.num_parameters() > small.num_parameters()
        assert deep.num_parameters() > small.num_parameters()

    def test_config_roundtrip(self, model):
        cfg = model.config()
        clone = CircuitGPS(**{**cfg, "num_heads": 4, "dropout": 0.0}, rng=1)
        assert clone.dim == model.dim
        assert clone.pe_kind == model.pe_kind

    def test_state_dict_roundtrip_preserves_outputs(self, model, batch):
        clone = CircuitGPS(dim=24, num_layers=2, pe_kind="dspd", pe_hidden=8,
                           attention="none", dropout=0.0, rng=99)
        clone.load_state_dict(model.state_dict())
        model.eval()
        clone.eval()
        with no_grad():
            np.testing.assert_allclose(model(batch, task="link").data,
                                       clone(batch, task="link").data, atol=1e-10)
        model.train()


class TestFinetuningHooks:
    def test_freeze_backbone_keeps_head_trainable(self, batch):
        model = CircuitGPS(dim=16, num_layers=1, attention="none", rng=0)
        model.freeze_backbone()
        backbone_flags = [p.requires_grad for m in model.backbone_modules()
                          for p in m.parameters()]
        head_flags = [p.requires_grad for p in model.edge_head.parameters()]
        assert not any(backbone_flags)
        assert all(head_flags)
        model.unfreeze_backbone()
        assert all(p.requires_grad for m in model.backbone_modules() for p in m.parameters())

    def test_head_parameters_selector(self):
        model = CircuitGPS(dim=16, num_layers=1, attention="none", rng=0)
        link_params = model.head_parameters("link")
        edge_params = model.head_parameters("edge_regression")
        node_params = model.head_parameters("node_regression")
        assert link_params and edge_params and node_params
        assert {id(p) for p in edge_params}.isdisjoint({id(p) for p in node_params})
        with pytest.raises(ValueError):
            model.head_parameters("unknown")

    def test_frozen_backbone_gradients_not_computed(self, batch):
        model = CircuitGPS(dim=16, num_layers=1, attention="none", dropout=0.0, rng=0)
        model.freeze_backbone()
        loss = (model(batch, task="edge_regression") ** 2).sum()
        loss.backward()
        assert all(p.grad is None for m in model.backbone_modules() for p in m.parameters())
        assert any(p.grad is not None for p in model.edge_head.parameters())
