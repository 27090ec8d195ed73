"""Tests for the trainer: subgraph batches and whole-design baseline batches."""

import numpy as np
import pytest

from repro.core import (
    Trainer,
    build_design_batch,
    classification_metrics,
    link_pairs_for_design,
    regression_metrics,
    score_design_batch,
)
from repro.core.datasets import build_edge_regression_samples, build_link_samples
from repro.core.pretrain import build_model
from repro.models import DLPLCap, ParaGraph


@pytest.fixture(scope="module")
def link_samples(small_design, tiny_config):
    return build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)


@pytest.fixture(scope="module")
def regression_samples(small_design, tiny_config):
    return build_edge_regression_samples(small_design, tiny_config.data, rng=0)


class TestTrainer:
    def test_rejects_unknown_task(self, tiny_config):
        model = build_model(tiny_config)
        with pytest.raises(ValueError):
            Trainer(model, task="segmentation", config=tiny_config.train)

    def test_link_training_reduces_loss(self, tiny_config, link_samples):
        model = build_model(tiny_config)
        trainer = Trainer(model, task="link", config=tiny_config.train)
        history = trainer.fit(link_samples, epochs=4)
        losses = [row["loss"] for row in history.history]
        assert losses[-1] < losses[0]

    def test_link_training_beats_chance_on_train_set(self, tiny_config, link_samples):
        model = build_model(tiny_config)
        trainer = Trainer(model, task="link", config=tiny_config.train)
        trainer.fit(link_samples, epochs=5)
        metrics = trainer.evaluate(link_samples)
        assert metrics["accuracy"] > 0.7
        assert metrics["auc"] > 0.75

    def test_predict_returns_probabilities_for_link(self, tiny_config, link_samples):
        model = build_model(tiny_config)
        trainer = Trainer(model, task="link", config=tiny_config.train)
        scores = trainer.predict(link_samples[:16])
        assert scores.shape == (16,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_regression_training_improves_r2(self, tiny_config, regression_samples):
        model = build_model(tiny_config)
        trainer = Trainer(model, task="edge_regression", config=tiny_config.train)
        before = trainer.evaluate(regression_samples)
        trainer.fit(regression_samples, epochs=5)
        after = trainer.evaluate(regression_samples)
        assert after["mae"] < before["mae"]

    def test_validation_metrics_logged(self, tiny_config, link_samples):
        model = build_model(tiny_config)
        trainer = Trainer(model, task="link", config=tiny_config.train)
        history = trainer.fit(link_samples[:60], link_samples[60:90], epochs=2)
        assert "val_accuracy" in history.history[-1]

    def test_head_only_parameters_subset(self, tiny_config, regression_samples):
        model = build_model(tiny_config)
        model.freeze_backbone()
        trainer = Trainer(model, task="edge_regression", config=tiny_config.train,
                          parameters=model.head_parameters("edge_regression"))
        backbone_before = {name: param.data.copy()
                           for name, param in model.node_encoder.named_parameters()}
        trainer.fit(regression_samples[:40], epochs=2)
        for name, before in backbone_before.items():
            np.testing.assert_allclose(dict(model.node_encoder.named_parameters())[name].data,
                                       before)


class TestWholeDesignBaselines:
    """ParaGraph / DLPL-Cap through :class:`Trainer` on whole-design batches."""

    def test_link_pairs_balanced(self, small_design, tiny_config):
        pairs, labels, targets = link_pairs_for_design(small_design, tiny_config.data, rng=0)
        assert pairs.shape[0] == labels.shape[0] == targets.shape[0]
        assert 0.3 <= labels.mean() <= 0.7

    def test_regression_pairs_filtered_to_cap_range(self, small_design, tiny_config):
        pairs, labels, targets = link_pairs_for_design(small_design, tiny_config.data,
                                                       regression=True, rng=0)
        assert np.all(targets[labels == 1.0] > 0)

    @pytest.mark.parametrize("model_cls", [ParaGraph, DLPLCap])
    def test_link_training_runs_and_evaluates(self, model_cls, small_design, tiny_config):
        model = model_cls(dim=12, num_layers=2, rng=0)
        batch = build_design_batch(small_design, "link", tiny_config.data, rng=0)
        history = Trainer(model, task="link", config=tiny_config.train).fit([batch], epochs=3)
        assert len(history.history) == 3
        scores = score_design_batch(model, batch, "link")
        assert np.all((scores >= 0) & (scores <= 1))
        metrics = classification_metrics(scores, batch.labels)
        assert set(metrics) == {"accuracy", "f1", "auc"}

    def test_edge_regression_task(self, small_design, tiny_config):
        model = ParaGraph(dim=12, num_layers=2, rng=0)
        batch = build_design_batch(small_design, "edge_regression", tiny_config.data, rng=0)
        Trainer(model, task="edge_regression", config=tiny_config.train).fit([batch], epochs=2)
        scores = score_design_batch(model, batch, "edge_regression")
        metrics = regression_metrics(scores, batch.targets)
        assert set(metrics) == {"mae", "rmse", "r2"}

    def test_node_regression_task(self, small_design, tiny_config):
        model = DLPLCap(dim=12, num_layers=2, rng=0)
        batch = build_design_batch(small_design, "node_regression", tiny_config.data, rng=0)
        assert np.array_equal(batch.pairs[:, 0], batch.pairs[:, 1])
        Trainer(model, task="node_regression", config=tiny_config.train).fit([batch], epochs=2)
        scores = score_design_batch(model, batch, "node_regression")
        assert np.isfinite(regression_metrics(scores, batch.targets)["mae"])

    def test_unknown_task_raises(self, small_design, tiny_config):
        with pytest.raises(ValueError):
            build_design_batch(small_design, "foo", tiny_config.data, rng=0)

    def test_design_batches_draw_nothing_from_the_trainer_rng(self, small_design,
                                                               tiny_config):
        batch = build_design_batch(small_design, "link", tiny_config.data, rng=0)
        trainer = Trainer(ParaGraph(dim=8, num_layers=1, rng=0), task="link",
                          config=tiny_config.train, rng=7)
        trainer.fit([batch], epochs=2)
        assert trainer.rng.random() == np.random.default_rng(7).random()
