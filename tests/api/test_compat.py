"""Backward-compatibility sweep for the registry-driven API redesign.

Pins three contracts:

* v1/v2 pipeline checkpoints still load under schema v3,
* legacy ``task=`` strings resolve to the right :class:`repro.api.Task`
  everywhere they used to be accepted,
* training, saving and loading through the current API never emit a
  :class:`DeprecationWarning`.
"""

import warnings

import numpy as np
import pytest

from repro.api import EdgeRegressionTask, ExperimentSpec
from repro.core import PIPELINE_SCHEMA, AnnotationEngine, CircuitGPSPipeline
from repro.utils import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def trained(tiny_config, small_design):
    pipe = CircuitGPSPipeline(tiny_config)
    pipe.add_design(small_design)
    pipe.pretrain()
    pipe.finetune(mode="all", task="edge_regression")
    return pipe


def _strip_v3_metadata(metadata: dict) -> dict:
    """Rewrite v3 checkpoint metadata into its v2 shape."""
    metadata = dict(metadata)
    metadata.pop("spec", None)
    v2_keys = ("dim", "num_layers", "pe_kind", "pe_hidden", "mpnn", "attention",
               "stats_dim")

    def downgrade(model_meta):
        return {k: v for k, v in model_meta.items() if k in v2_keys}

    metadata["model"] = downgrade(metadata.get("model", {}))
    metadata["finetunes"] = [dict(entry, model=downgrade(entry.get("model", {})))
                             for entry in metadata.get("finetunes", [])]
    return metadata


def _downgraded_artifact(trained, tmp_path, version: int):
    """A v1/v2-layout archive rewritten from a freshly saved v3 artifact."""
    source = trained.save(tmp_path / "v3.npz")
    state, metadata = load_checkpoint(source)
    metadata = _strip_v3_metadata(metadata)
    if version < 2:  # v1 had no optimizer/schedule state
        state = {k: v for k, v in state.items() if not k.startswith("optim.")}
    path = tmp_path / f"v{version}.npz"
    save_checkpoint(path, state, metadata, schema=PIPELINE_SCHEMA, version=version)
    return path


class TestCheckpointCompat:
    def test_v3_artifact_carries_spec_and_type_stamps(self, trained, tmp_path):
        path = trained.save(tmp_path / "artifact.npz")
        _, metadata = load_checkpoint(path)
        assert metadata["model"]["type"] == "circuitgps"
        assert all(e["model"]["type"] == "circuitgps" for e in metadata["finetunes"])
        spec = ExperimentSpec.from_dict(metadata["spec"])
        assert spec.backbone_type == "circuitgps"
        assert spec.task_type == "edge_regression"

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_load_under_v3(self, trained, tmp_path, version):
        path = _downgraded_artifact(trained, tmp_path, version)
        fresh = CircuitGPSPipeline.from_checkpoint(path)
        original = trained.pretrain_result.model.state_dict()
        loaded = fresh.pretrain_result.model.state_dict()
        for name, value in original.items():
            np.testing.assert_array_equal(loaded[name], value, err_msg=name)
        assert ("edge_regression", "all") in fresh.finetune_results
        # The rebuilt pipeline re-saves as v3 with a synthesised spec.
        resaved = fresh.save(tmp_path / f"resaved_v{version}.npz")
        _, metadata = load_checkpoint(resaved)
        assert metadata["spec"]["backbone"]["type"] == "circuitgps"

    def test_parameterized_task_round_trips_through_checkpoints(
            self, tiny_config, small_design, tmp_path):
        """Task constructor kwargs persist (not just the registry name)."""
        from repro.api import GraphPropertyTask

        pipe = CircuitGPSPipeline(tiny_config)
        pipe.add_design(small_design)
        pipe.finetune(mode="scratch",
                      task=GraphPropertyTask(property="log_size"))
        pipe.pretrain()  # save() needs the link model
        path = pipe.save(tmp_path / "param_task.npz")
        loaded = CircuitGPSPipeline.from_checkpoint(path)
        task_obj = loaded.finetune_results[("graph_property", "scratch")].trainer.task_obj
        assert isinstance(task_obj, GraphPropertyTask)
        assert task_obj.property == "log_size"
        assert loaded.spec.task == {"type": "graph_property", "property": "log_size"}

    def test_v3_round_trip_preserves_weights_and_spec(self, trained, tmp_path):
        path = trained.save(tmp_path / "rt.npz")
        fresh = CircuitGPSPipeline.from_checkpoint(path)
        np.testing.assert_array_equal(
            fresh.pretrain_result.model.state_dict()["node_encoder.weight"],
            trained.pretrain_result.model.state_dict()["node_encoder.weight"],
        )
        assert fresh.spec.task_type == trained.spec.task_type


class TestLegacyTaskStrings:
    def test_trainer_and_engine_accept_strings(self, trained):
        engine = AnnotationEngine(trained, task="edge_regression", mode="all")
        assert isinstance(engine.task_obj, EdgeRegressionTask)
        assert engine.task == "edge_regression"

    def test_pipeline_evaluate_accepts_string_and_task(self, trained, small_design):
        by_string = trained.evaluate_regression(small_design.name,
                                                task="edge_regression")
        by_task = trained.evaluate_regression(small_design.name,
                                              task=EdgeRegressionTask())
        assert by_string == by_task

    def test_finetune_keys_are_task_names(self, trained):
        assert ("edge_regression", "all") in trained.finetune_results
        result = trained.finetune_results[("edge_regression", "all")]
        assert result.task == "edge_regression"


class TestDeprecatedWrappers:
    def test_internal_paths_do_not_warn(self, tiny_config, small_design, tmp_path):
        """Training, saving and loading through the new API never warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipe = CircuitGPSPipeline(tiny_config)
            pipe.add_design(small_design)
            pipe.pretrain()
            pipe.finetune(mode="scratch", task="edge_regression")
            path = pipe.save(tmp_path / "clean.npz")
            CircuitGPSPipeline.from_checkpoint(path)
