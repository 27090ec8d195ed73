"""End-to-end tests for pre-training and the three fine-tuning modes."""

import numpy as np
import pytest

from repro.core import (
    FINETUNE_MODES,
    evaluate_task,
    evaluate_zero_shot_link,
    finetune_task,
    pretrain_link_model,
)


@pytest.fixture(scope="module")
def pretrained(small_design, tiny_config):
    return pretrain_link_model([small_design], tiny_config, val_fraction=0.15)


class TestPretrain:
    def test_result_contains_model_and_history(self, pretrained, tiny_config):
        assert pretrained.model.pe_kind == tiny_config.model.pe_kind
        assert len(pretrained.history.history) == tiny_config.train.epochs
        assert pretrained.train_samples and pretrained.val_samples

    def test_validation_metrics_above_chance(self, pretrained):
        metrics = pretrained.val_metrics
        assert metrics["accuracy"] > 0.6
        assert metrics["auc"] > 0.6

    def test_zero_shot_on_unseen_design(self, pretrained, small_test_design, tiny_config):
        metrics = evaluate_zero_shot_link(pretrained, small_test_design, tiny_config)
        assert set(metrics) >= {"accuracy", "f1", "auc"}
        assert metrics["auc"] > 0.5  # transfers better than random

    def test_pe_override(self, small_design, tiny_config):
        result = pretrain_link_model([small_design], tiny_config.with_train(epochs=1),
                                     pe_kind="drnl")
        assert result.model.pe_kind == "drnl"


class TestFinetune:
    def test_all_modes_run(self, pretrained, small_design, tiny_config):
        for mode in FINETUNE_MODES:
            result = finetune_task([small_design], "edge_regression",
                                   pretrained=None if mode == "scratch" else pretrained.model,
                                   mode=mode, config=tiny_config, epochs=2)
            assert result.mode == mode
            assert result.train_samples

    def test_invalid_mode_raises(self, small_design, tiny_config):
        with pytest.raises(ValueError):
            finetune_task([small_design], "edge_regression", mode="partial",
                          config=tiny_config)

    def test_head_and_all_require_pretrained(self, small_design, tiny_config):
        with pytest.raises(ValueError):
            finetune_task([small_design], "edge_regression", pretrained=None, mode="all",
                          config=tiny_config)

    def test_head_mode_freezes_backbone(self, pretrained, small_design, tiny_config):
        result = finetune_task([small_design], "edge_regression",
                               pretrained=pretrained.model, mode="head",
                               config=tiny_config, epochs=2)
        # Learnable backbone parameters must be untouched; BatchNorm running
        # statistics (buffers) are allowed to adapt to the regression data.
        pretrained_params = dict(pretrained.model.named_parameters())
        finetuned_params = dict(result.model.named_parameters())
        for name, param in pretrained_params.items():
            if name.startswith(("node_encoder", "edge_encoder", "pe_encoder", "layers")):
                np.testing.assert_allclose(finetuned_params[name].data, param.data, err_msg=name)

    def test_all_mode_changes_backbone(self, pretrained, small_design, tiny_config):
        result = finetune_task([small_design], "edge_regression",
                               pretrained=pretrained.model, mode="all",
                               config=tiny_config, epochs=2)
        pretrained_state = pretrained.model.state_dict()
        finetuned_state = result.model.state_dict()
        changed = any(
            not np.allclose(finetuned_state[name], value)
            for name, value in pretrained_state.items()
            if name.startswith("layers")
        )
        assert changed

    def test_finetuning_fits_training_distribution(self, pretrained, small_design, tiny_config):
        result = finetune_task([small_design], "edge_regression",
                               pretrained=pretrained.model, mode="all",
                               config=tiny_config, epochs=10)
        metrics = result.trainer.evaluate(result.train_samples)
        assert metrics["mae"] < 0.3

    def test_node_regression_task(self, small_design, tiny_config):
        result = finetune_task([small_design], "node_regression", mode="scratch",
                               config=tiny_config, epochs=2)
        assert result.task == "node_regression"
        metrics = evaluate_task(result, small_design, "node_regression",
                                config=tiny_config)
        assert np.isfinite(metrics["mae"])

    def test_evaluate_regression_on_unseen_design(self, pretrained, small_design,
                                                  small_test_design, tiny_config):
        result = finetune_task([small_design], "edge_regression",
                               pretrained=pretrained.model, mode="all",
                               config=tiny_config, epochs=3)
        metrics = evaluate_task(result, small_test_design, "edge_regression",
                                config=tiny_config)
        assert metrics["mae"] < 0.5
        assert metrics["num_samples"] > 0
