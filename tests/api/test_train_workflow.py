"""``repro train`` is ``repro.api.fit`` plus ``save``: one spec, one artifact.

Every test trains a tiny spec (SSRAM at scale 0.2, width 16, one GPS layer,
one epoch), so each training takes about a second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.api import ExperimentSpec
from repro.core.cli import main
from repro.core.datasets import load_design_suite
from repro.core.pipeline import PIPELINE_SCHEMA
from repro.core.serve import AnnotationEngine
from repro.utils.serialization import load_checkpoint

SCALE = 0.2
# The paper's link recipe with tighter caps than the spec's ``data``, so
# the samples it draws differ from the default pipeline's.
LINK_SAMPLING = [
    {"stage": "link_seeds", "max_links": 24},
    {"stage": "negative_permute"},
    {"stage": "inject"},
    {"stage": "enclosing", "hops": 1, "max_nodes_per_hop": 6},
    {"stage": "shuffle"},
]


def _tiny_spec(**overrides) -> ExperimentSpec:
    payload = {
        "name": "tiny",
        "backbone": {"type": "circuitgps", "dim": 16, "num_layers": 1},
        "task": {"type": "edge_regression"},
        "train": {"epochs": 1},
        "data": {"scale": SCALE, "max_links_per_design": 40,
                 "max_nodes_per_hop": 10},
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


def _designs():
    return load_design_suite(scale=SCALE, seed=0, names=["SSRAM"])


def _cli_train(spec: ExperimentSpec, tmp_path, *flags: str) -> dict:
    spec_path = tmp_path / "spec.json"
    spec.to_json(spec_path)
    out = tmp_path / "cli"
    assert main(["train", "--spec", str(spec_path), "--designs", "SSRAM",
                 "--out", str(out), *flags]) == 0
    return load_checkpoint(out / "pipeline.npz", schema=PIPELINE_SCHEMA)


@pytest.mark.parametrize("sampling", [None, LINK_SAMPLING],
                         ids=["no-sampling", "link-sampling"])
def test_cli_spec_artifact_equals_fit_artifact(tmp_path, sampling):
    """A spec-level ``sampling`` reaches the fine-tuned task only, in both."""
    spec = _tiny_spec(sampling=sampling)
    cli_state, cli_meta = _cli_train(spec, tmp_path)
    path = api.fit(spec, _designs()).save(tmp_path / "fit")
    fit_state, fit_meta = load_checkpoint(path, schema=PIPELINE_SCHEMA)

    assert sorted(cli_state) == sorted(fit_state)
    for key, value in fit_state.items():
        assert cli_state[key].dtype == value.dtype, key
        assert cli_state[key].tobytes() == value.tobytes(), key
    assert cli_meta == fit_meta


def test_fit_without_pretraining_saves_a_servable_artifact(tmp_path, small_design):
    """``"pretrain": false`` fine-tunes from scratch next to a pre-trained
    link model, so the artifact saves, reloads and serves."""
    pipeline = api.fit(_tiny_spec(pretrain=False), _designs())
    assert pipeline.pretrain_result is not None
    assert sorted(pipeline.finetune_results) == [("edge_regression", "scratch")]

    loaded = api.load(pipeline.save(tmp_path / "ckpt"))
    engine = AnnotationEngine(loaded, mode="scratch")
    annotation = engine.annotate(small_design.circuit, pairs=[("BL0", "BL1")])
    assert len(annotation.records) == 1
    assert np.isfinite(annotation.records[0]["coupling_probability"])


def test_cli_link_spec_saves_no_finetune_head(tmp_path):
    """A link-task spec stops after pre-training: one link model, no head."""
    state, meta = _cli_train(_tiny_spec(task={"type": "link"}), tmp_path)
    assert meta["finetunes"] == []
    assert state and all(key.startswith(("pretrain.", "optim.pretrain."))
                         for key in state)


def test_cli_further_tasks_add_one_head_each(tmp_path):
    """``--tasks A B`` fits A through the spec and fine-tunes B once more;
    a link entry adds nothing, the pre-trained model already serves it."""
    spec = _tiny_spec(data={"scale": SCALE, "max_links_per_design": 40,
                            "max_nodes_per_hop": 10, "max_nodes_per_design": 40})
    _, meta = _cli_train(spec, tmp_path, "--tasks", "edge_regression",
                         "node_regression", "link", "--mode", "head")
    assert [(entry["task"], entry["mode"]) for entry in meta["finetunes"]] == [
        ("edge_regression", "head"), ("node_regression", "head")]
