"""ExperimentSpec validation, serialisation and round-trip property tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, SPEC_VERSION, SpecError
from repro.core import ExperimentConfig


# --------------------------------------------------------------------------- #
# Randomised valid specs (hypothesis)
# --------------------------------------------------------------------------- #
def _backbone_specs():
    kwargs = st.fixed_dictionaries(
        {},
        optional={
            "dim": st.sampled_from([16, 32, 48]),
            "num_layers": st.integers(1, 3),
            "attention": st.sampled_from(["transformer", "performer", "none"]),
            "pe_kind": st.sampled_from(["dspd", "drnl", "none"]),
            "dropout": st.sampled_from([0.0, 0.1]),
        },
    )
    return kwargs.map(lambda kw: {"type": "circuitgps", **kw})


def _task_specs():
    return st.one_of(
        st.sampled_from(["link", "edge_regression", "node_regression"]).map(
            lambda t: {"type": t}),
        st.sampled_from(["density", "log_size"]).map(
            lambda p: {"type": "graph_property", "property": p}),
    )


def _train_dicts():
    return st.fixed_dictionaries(
        {},
        optional={
            "epochs": st.integers(1, 30),
            "batch_size": st.sampled_from([16, 32, 64]),
            "lr": st.sampled_from([1e-3, 3e-3]),
            "seed": st.integers(0, 5),
        },
    )


def _data_dicts():
    return st.fixed_dictionaries(
        {},
        optional={
            "scale": st.sampled_from([0.25, 0.5]),
            "max_links_per_design": st.integers(10, 400),
            "hops": st.integers(1, 2),
            "seed": st.integers(0, 5),
        },
    )


valid_specs = st.builds(
    ExperimentSpec,
    backbone=_backbone_specs(),
    task=_task_specs(),
    train=_train_dicts(),
    data=_data_dicts(),
    mode=st.sampled_from(["scratch", "head", "all"]),
    pretrain=st.booleans(),
    name=st.sampled_from(["experiment", "ablation-3", "x"]),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=valid_specs)
    def test_dict_round_trip_is_identity(self, spec):
        spec.validate()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=25, deadline=None)
    @given(spec=valid_specs)
    def test_json_round_trip_is_identity(self, spec):
        spec.validate()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = ExperimentSpec(backbone={"type": "circuitgps", "dim": 24},
                              task={"type": "node_regression"})
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec
        # The file is plain JSON (editable by hand / other tools).
        assert json.loads(path.read_text())["backbone"]["dim"] == 24

    def test_string_components_normalise_to_dicts(self):
        spec = ExperimentSpec(backbone="circuitgps", task="link")
        assert spec.backbone == {"type": "circuitgps"}
        assert spec.task == {"type": "link"}
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestValidation:
    def test_unknown_backbone_names_available(self):
        with pytest.raises(ValueError, match="unknown backbone 'gpsx', available:"):
            ExperimentSpec.from_dict({"backbone": "gpsx"})

    def test_unknown_task_names_available(self):
        with pytest.raises(ValueError, match="unknown task 'segmentation', available:"):
            ExperimentSpec.from_dict({"task": {"type": "segmentation"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match=r"unknown experiment-spec key\(s\) \['optimizer'\]"):
            ExperimentSpec.from_dict({"optimizer": "adam"})

    def test_unknown_train_key_lists_valid_keys(self):
        with pytest.raises(SpecError, match=r"unknown train key\(s\) \['learning_rate'\]"):
            ExperimentSpec.from_dict({"train": {"learning_rate": 1e-3}})

    def test_unknown_data_key_lists_valid_keys(self):
        with pytest.raises(SpecError, match="unknown data key"):
            ExperimentSpec.from_dict({"data": {"n_hops": 2}})

    def test_newer_version_rejected(self):
        with pytest.raises(SpecError, match="newer than the supported"):
            ExperimentSpec.from_dict({"version": SPEC_VERSION + 1})

    def test_bad_version_type_rejected(self):
        with pytest.raises(SpecError, match="positive int"):
            ExperimentSpec.from_dict({"version": "one"})

    def test_bad_mode_rejected(self):
        with pytest.raises(SpecError, match="mode must be one of"):
            ExperimentSpec.from_dict({"mode": "partial"})

    def test_bad_pretrain_rejected(self):
        with pytest.raises(SpecError, match="pretrain must be a bool"):
            ExperimentSpec.from_dict({"pretrain": "yes"})

    def test_component_spec_without_type(self):
        with pytest.raises(SpecError, match="component name or a"):
            ExperimentSpec.from_dict({"backbone": {"dim": 32}})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(SpecError, match="must be a dict"):
            ExperimentSpec.from_dict(["backbone"])

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")


class TestConfigBridge:
    def test_from_config_carries_model_fields(self):
        config = ExperimentConfig.fast().with_model(dim=24, attention="none")
        spec = ExperimentSpec.from_config(config, task="node_regression", mode="head")
        assert spec.backbone["dim"] == 24
        assert spec.backbone["attention"] == "none"
        assert spec.task == {"type": "node_regression"}
        assert spec.mode == "head"

    def test_to_config_round_trips_model_fields(self):
        config = ExperimentConfig.fast().with_model(dim=24, num_layers=2)
        rebuilt = ExperimentSpec.from_config(config).to_config()
        assert rebuilt.model == config.model
        assert rebuilt.data == config.data

    def test_coerce_accepts_config_dict_spec_and_json(self):
        config = ExperimentConfig.fast()
        from_config = ExperimentSpec.coerce(config)
        assert from_config.backbone_type == "circuitgps"
        spec = ExperimentSpec(task="link")
        assert ExperimentSpec.coerce(spec) is spec
        assert ExperimentSpec.coerce(spec.to_dict()) == spec
        assert ExperimentSpec.coerce(spec.to_json()) == spec
        with pytest.raises(SpecError, match="cannot build"):
            ExperimentSpec.coerce(42)

    def test_build_backbone_and_task(self):
        spec = ExperimentSpec(
            backbone={"type": "circuitgps", "dim": 16, "num_layers": 1,
                      "attention": "none"},
            task={"type": "graph_property", "property": "log_size"},
        )
        model = spec.build_backbone(rng=0)
        assert model.dim == 16
        task = spec.build_task()
        assert task.name == "graph_property"
        assert task.property == "log_size"


class TestBackendCompatibility:
    """Specs written while a spec named a compute backend still parse."""

    def test_numpy_backend_pair_is_dropped(self):
        payload = ExperimentSpec(name="old").to_dict()
        assert "backend" not in payload
        payload["backend"] = "numpy"
        spec = ExperimentSpec.from_dict(payload)
        assert spec == ExperimentSpec(name="old")
        assert "backend" not in spec.to_dict()
        assert ExperimentSpec.from_json(json.dumps(payload)) == spec

    @pytest.mark.parametrize("value", ["torch", "numba", "NUMPY", 3, None])
    def test_any_other_backend_is_rejected(self, value):
        with pytest.raises(SpecError, match="numpy is the only compute engine"):
            ExperimentSpec.from_dict({"backend": value})
