"""Backward-compatibility sweep for the registry-driven API redesign.

Pins three contracts:

* schema-v3 pipeline checkpoints carry the spec and registry-type stamps
  that rebuild their models,
* legacy ``task=`` strings resolve to the right :class:`repro.api.Task`
  everywhere they used to be accepted,
* training, saving and loading through the current API never emit a
  :class:`DeprecationWarning`.
"""

import warnings

import numpy as np
import pytest

from repro.api import EdgeRegressionTask, ExperimentSpec
from repro.core import AnnotationEngine, CircuitGPSPipeline
from repro.utils import load_checkpoint


@pytest.fixture(scope="module")
def trained(tiny_config, small_design):
    pipe = CircuitGPSPipeline(tiny_config)
    pipe.add_design(small_design)
    pipe.pretrain()
    pipe.finetune(mode="all", task="edge_regression")
    return pipe


class TestCheckpointCompat:
    def test_v3_artifact_carries_spec_and_type_stamps(self, trained, tmp_path):
        path = trained.save(tmp_path / "artifact.npz")
        _, metadata = load_checkpoint(path)
        assert metadata["model"]["type"] == "circuitgps"
        assert all(e["model"]["type"] == "circuitgps" for e in metadata["finetunes"])
        spec = ExperimentSpec.from_dict(metadata["spec"])
        assert spec.backbone_type == "circuitgps"
        assert spec.task_type == "edge_regression"

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
