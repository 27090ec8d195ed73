"""Tests for the high-level CircuitGPSPipeline API."""

import json
import re

import numpy as np
import pytest

import repro.api as api
from repro.core import (
    PIPELINE_SCHEMA,
    PIPELINE_SCHEMA_VERSION,
    AnnotationEngine,
    CircuitGPSPipeline,
    DesignData,
    ExperimentConfig,
)
from repro.netlist import parse_spice_file, ssram, write_spice
from repro.utils import CheckpointError, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def pipeline(tiny_config, small_design, small_test_design):
    pipe = CircuitGPSPipeline(tiny_config)
    pipe.add_design(small_design)
    pipe.add_design(small_test_design)
    pipe.pretrain()
    return pipe


def finetuned(pipeline: CircuitGPSPipeline) -> CircuitGPSPipeline:
    """The fixture pipeline with its ``("edge_regression", "all")`` head,
    which serving needs (the module fixture only pre-trains)."""
    if ("edge_regression", "all") not in pipeline.finetune_results:
        pipeline.finetune(mode="all")
    return pipeline


class TestPipeline:
    def test_split_properties(self, pipeline, small_design, small_test_design):
        assert small_design in pipeline.train_designs
        assert small_test_design in pipeline.test_designs

    def test_missing_design_raises(self, pipeline):
        with pytest.raises(KeyError):
            pipeline.evaluate_link("NOT_LOADED")

    def test_pretrain_required_before_link_eval(self, tiny_config, small_test_design):
        pipe = CircuitGPSPipeline(tiny_config)
        pipe.add_design(small_test_design)
        with pytest.raises(RuntimeError):
            pipe.evaluate_link(small_test_design.name)

    def test_pretrain_without_training_designs_raises(self, tiny_config, small_test_design):
        pipe = CircuitGPSPipeline(tiny_config)
        pipe.add_design(small_test_design)
        with pytest.raises(RuntimeError):
            pipe.pretrain()

    def test_evaluate_link_zero_shot(self, pipeline, small_test_design):
        metrics = pipeline.evaluate_link(small_test_design.name)
        assert metrics["auc"] > 0.5

    def test_finetune_and_evaluate_regression(self, pipeline, small_test_design):
        metrics = pipeline.evaluate_regression(small_test_design.name, mode="all")
        assert np.isfinite(metrics["mae"])
        assert ("edge_regression", "all") in pipeline.finetune_results

    def test_annotate_user_circuit(self, pipeline, small_test_design):
        graph = small_test_design.graph
        link = graph.links[0]
        pair = (graph.node_names[link.source], graph.node_names[link.target])
        engine = AnnotationEngine(finetuned(pipeline))
        records = engine.annotate(small_test_design.circuit, pairs=[pair]).records
        assert len(records) == 1
        record = records[0]
        assert 0.0 <= record["coupling_probability"] <= 1.0
        assert record["capacitance_farad"] >= 0.0

    def test_annotate_unknown_pair_raises(self, pipeline, small_test_design):
        engine = AnnotationEngine(finetuned(pipeline))
        with pytest.raises(KeyError):
            engine.annotate(small_test_design.circuit, pairs=[("nope", "also_nope")])

    def test_save_and_load_roundtrip(self, pipeline, small_test_design, tmp_path, tiny_config):
        path = tmp_path / "meta_learner.npz"
        pipeline.save(path)
        fresh = CircuitGPSPipeline(tiny_config)
        fresh.add_design(small_test_design)
        fresh.load(path)
        original = pipeline.pretrain_result.model.state_dict()
        loaded = fresh.pretrain_result.model.state_dict()
        for name, value in original.items():
            np.testing.assert_allclose(loaded[name], value, err_msg=name)
        metrics = fresh.evaluate_link(small_test_design.name)
        assert metrics["auc"] > 0.5

    def test_save_before_pretrain_raises(self, tiny_config, tmp_path):
        pipe = CircuitGPSPipeline(tiny_config)
        with pytest.raises(RuntimeError):
            pipe.save(tmp_path / "x.npz")

    def test_full_artifact_roundtrip_annotate(self, pipeline, tmp_path):
        """Train -> save -> load in a fresh pipeline -> identical annotations.

        The full-pipeline artifact must carry everything inference needs
        (backbone, fine-tuned head, normaliser, config): the loaded pipeline
        is never allowed to retrain, and its predictions on a bundled SPICE
        netlist must match the original bit-for-bit.
        """
        finetuned(pipeline)
        netlist_path = tmp_path / "bundled_macro.sp"
        macro = ssram(rows=4, cols=4)
        macro.name = "BUNDLED_MACRO"
        netlist_path.write_text(write_spice(macro))
        circuit = parse_spice_file(netlist_path).flatten()
        pairs = [("BL0", "BL1"), ("BL1", "BLB1"), ("WL0", "WL1")]

        artifact_dir = tmp_path / "ckpt"
        path = pipeline.save(artifact_dir)
        assert path == artifact_dir / "pipeline.npz"
        load_checkpoint(path, schema=PIPELINE_SCHEMA, version=PIPELINE_SCHEMA_VERSION)

        loaded = CircuitGPSPipeline.from_checkpoint(artifact_dir)
        assert set(loaded.finetune_results) >= {("edge_regression", "all")}
        assert loaded.normalizer.cap_min == pipeline.normalizer.cap_min

        original = AnnotationEngine(pipeline).annotate(circuit, pairs=pairs).records
        reloaded = AnnotationEngine(loaded).annotate(circuit, pairs=pairs).records
        assert len(reloaded) == len(pairs)
        for a, b in zip(original, reloaded):
            assert a["pair"] == b["pair"]
            assert a["coupling_probability"] == pytest.approx(
                b["coupling_probability"], rel=1e-12)
            assert a["capacitance_farad"] == pytest.approx(
                b["capacitance_farad"], rel=1e-12)
        # Loading must not have scheduled any training.
        assert loaded.pretrain_result.history.name == "loaded"

    def test_optimizer_state_survives_roundtrip(self, pipeline, tmp_path):
        """Resumed training keeps its Adam moments instead of silently
        restarting from zeros (the pre-v2 behaviour)."""
        trainer = pipeline.pretrain_result.trainer
        assert trainer.optimizer._t > 0  # the fixture actually trained
        path = pipeline.save(tmp_path / "resume.npz")
        loaded = CircuitGPSPipeline.from_checkpoint(path)
        restored = loaded.pretrain_result.trainer.optimizer
        assert restored._t == trainer.optimizer._t
        for original_m, restored_m in zip(trainer.optimizer._m, restored._m):
            np.testing.assert_allclose(restored_m, original_m)
        for original_v, restored_v in zip(trainer.optimizer._v, restored._v):
            np.testing.assert_allclose(restored_v, original_v)
        if trainer.schedule is not None:
            assert (loaded.pretrain_result.trainer._pending_schedule_state
                    is not None)

    def test_checkpoint_with_spec_backend_loads_and_annotates_identically(
            self, pipeline, tmp_path):
        """Archives written while specs named a compute backend persist
        ``"backend": "numpy"`` in their spec; they load, and nothing reads
        the key: annotations are byte-identical to a key-less archive."""
        finetuned(pipeline)
        path = pipeline.save(tmp_path / "current.npz")
        state, metadata = load_checkpoint(path)
        assert "backend" not in metadata["spec"]
        metadata["spec"]["backend"] = "numpy"
        old = tmp_path / "with_backend.npz"
        save_checkpoint(old, state, metadata, schema=PIPELINE_SCHEMA,
                        version=PIPELINE_SCHEMA_VERSION)
        circuit = ssram(rows=4, cols=4).flatten()
        pairs = [("BL0", "BL1"), ("BL1", "BLB1"), ("WL0", "WL1")]
        records = [
            AnnotationEngine(CircuitGPSPipeline.from_checkpoint(artifact))
            .annotate(circuit, pairs=pairs).records
            for artifact in (path, old)
        ]
        assert len(records[0]) == len(pairs)
        assert json.dumps(records[1]) == json.dumps(records[0])

    def test_resave_after_load_keeps_schedule_state(self, pipeline, tmp_path):
        """load -> save (no fit in between) must not drop the LR-schedule
        position that the loaded artifact carried."""
        first = pipeline.save(tmp_path / "first.npz")
        schedule_keys = {key for key in load_checkpoint(first)[0]
                         if key.startswith("optim.pretrain.schedule.")}
        assert schedule_keys, "fixture training produced no schedule state"
        loaded = CircuitGPSPipeline.from_checkpoint(first)
        second = loaded.save(tmp_path / "second.npz")
        state, _ = load_checkpoint(second)
        for key in schedule_keys:
            assert key in state, f"re-saved artifact dropped {key}"

    def test_incompatible_optimizer_state_is_skipped_not_fatal(self, pipeline, tmp_path):
        """A head-only fine-tune optimises fewer parameters than the reloaded
        full-model trainer tracks; the load warns and starts fresh moments."""
        path = pipeline.save(tmp_path / "mismatch.npz")
        state, metadata = load_checkpoint(path)
        # Drop one moment entry to fake a parameter-count mismatch.
        victim = sorted(key for key in state if key.startswith("optim.pretrain.optimizer.m."))[0]
        state.pop(victim)
        bad = tmp_path / "mismatched.npz"
        save_checkpoint(bad, state, metadata, schema=PIPELINE_SCHEMA,
                        version=PIPELINE_SCHEMA_VERSION)
        loaded = CircuitGPSPipeline.from_checkpoint(bad)  # must not raise
        assert loaded.pretrain_result.trainer.optimizer._t == 0

    def test_load_rejects_tampered_artifact(self, pipeline, tmp_path):
        path = pipeline.save(tmp_path / "artifact.npz")
        state, metadata = load_checkpoint(path)
        state["finetune.bogus.mode.weight"] = np.zeros(2)
        bad = tmp_path / "tampered.npz"
        save_checkpoint(bad, state, metadata, schema=PIPELINE_SCHEMA,
                        version=PIPELINE_SCHEMA_VERSION)
        with pytest.raises(CheckpointError, match="unexpected"):
            CircuitGPSPipeline.from_checkpoint(bad)

    def test_load_rejects_future_schema_version(self, pipeline, tmp_path):
        path = pipeline.save(tmp_path / "artifact.npz")
        state, metadata = load_checkpoint(path)
        future = tmp_path / "future.npz"
        save_checkpoint(future, state, metadata, schema=PIPELINE_SCHEMA,
                        version=PIPELINE_SCHEMA_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            CircuitGPSPipeline.from_checkpoint(future)

    def test_load_rejects_foreign_schema(self, pipeline, tmp_path):
        path = pipeline.save(tmp_path / "artifact.npz")
        state, metadata = load_checkpoint(path)
        foreign = tmp_path / "foreign.npz"
        save_checkpoint(foreign, state, metadata, schema="some-other-artifact")
        with pytest.raises(CheckpointError, match="schema"):
            CircuitGPSPipeline.from_checkpoint(foreign)

    def test_load_accepts_only_the_current_schema_version(self, pipeline, tmp_path):
        """v1 and v2 pipeline archives and schema-less model checkpoints are
        refused with a CheckpointError naming the version or schema found."""
        path = pipeline.save(tmp_path / "artifact.npz")
        state, metadata = load_checkpoint(path)
        for version in (1, 2):
            old = tmp_path / f"v{version}.npz"
            save_checkpoint(old, state, metadata, schema=PIPELINE_SCHEMA, version=version)
            for load in (api.load, CircuitGPSPipeline.from_checkpoint):
                with pytest.raises(CheckpointError, match=re.escape(
                        f"has schema version {version}, expected {PIPELINE_SCHEMA_VERSION}")):
                    load(old)
        model = pipeline.pretrain_result.model
        bare = tmp_path / "schema_less.npz"
        save_checkpoint(bare, model.state_dict(),
                        metadata={"model": model.config(),
                                  "experiment": pipeline.config.as_dict()})
        with pytest.raises(CheckpointError, match=re.escape(
                f"has schema None, expected {PIPELINE_SCHEMA!r}")):
            CircuitGPSPipeline().load(bare)

    def test_load_rejects_artifact_with_missing_keys(self, pipeline, tmp_path):
        path = pipeline.save(tmp_path / "artifact.npz")
        state, metadata = load_checkpoint(path)
        state.pop(sorted(key for key in state if key.startswith("pretrain."))[0])
        broken = tmp_path / "broken.npz"
        save_checkpoint(broken, state, metadata, schema=PIPELINE_SCHEMA,
                        version=PIPELINE_SCHEMA_VERSION)
        with pytest.raises(CheckpointError, match="missing"):
            CircuitGPSPipeline(pipeline.config).load(broken)

    def test_load_designs_builds_paper_suite(self, tiny_config):
        pipe = CircuitGPSPipeline(tiny_config.with_data(scale=0.25))
        designs = pipe.load_designs(names=["SSRAM", "TIMING_CONTROL"])
        assert set(designs) == {"SSRAM", "TIMING_CONTROL"}
        assert isinstance(designs["SSRAM"], DesignData)
        assert pipe.train_designs and pipe.test_designs
