"""Tests for experiment configuration objects."""

import pytest

from repro.core import DataConfig, ExperimentConfig, ModelConfig, TrainConfig


class TestExperimentConfig:
    def test_defaults_are_consistent(self):
        config = ExperimentConfig.default()
        assert config.model.dim > config.model.pe_hidden
        assert config.train.epochs > 0
        assert 0 < config.data.scale <= 1.0

    def test_fast_config_is_smaller(self):
        fast = ExperimentConfig.fast()
        default = ExperimentConfig.default()
        assert fast.model.dim <= default.model.dim
        assert fast.train.epochs <= default.train.epochs
        assert fast.data.max_links_per_design <= default.data.max_links_per_design

    def test_benchmark_config_builds(self):
        bench = ExperimentConfig.benchmark()
        assert bench.name == "circuitgps-bench"

    def test_with_model_returns_new_object(self):
        config = ExperimentConfig.default()
        modified = config.with_model(dim=128)
        assert modified.model.dim == 128
        assert config.model.dim != 128
        assert modified.train is config.train

    def test_with_train_and_data(self):
        config = ExperimentConfig.default().with_train(epochs=1).with_data(scale=0.1)
        assert config.train.epochs == 1
        assert config.data.scale == 0.1

    def test_as_dict_roundtrip_keys(self):
        config = ExperimentConfig.default()
        payload = config.as_dict()
        assert set(payload) == {"model", "train", "data", "name"}
        assert payload["model"]["dim"] == config.model.dim

    def test_worker_counts_are_not_configuration(self):
        """Worker counts are runtime settings of the engine, never part of a
        checkpoint; metadata that still carries one loads without it."""
        payload = ExperimentConfig.default().as_dict()
        assert "num_workers" not in payload["train"]
        assert "num_workers" not in payload["data"]
        payload["train"]["num_workers"] = payload["data"]["num_workers"] = 8
        restored = ExperimentConfig.from_dict(payload)
        assert restored == ExperimentConfig.default()
        assert not hasattr(restored.train, "num_workers")
        assert not hasattr(restored.data, "num_workers")

    def test_configs_are_frozen(self):
        config = ExperimentConfig.default()
        with pytest.raises(Exception):
            config.model.dim = 12
        with pytest.raises(Exception):
            config.train.lr = 0.5

    def test_subconfigs_standalone(self):
        assert ModelConfig().dim > 0
        assert TrainConfig().lr > 0
        assert DataConfig().hops == 1
