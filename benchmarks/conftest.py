"""Shared fixtures for the benchmark harness.

Every module in ``benchmarks/`` regenerates one table or figure of the paper.
Expensive artefacts (the design suite, link-prediction samples, the pre-trained
meta-learner) are built once per session and shared across benchmarks, mirroring
how the paper reuses one pre-trained model for all downstream experiments.

Two presets are available via the ``REPRO_BENCH_PRESET`` environment variable:

* ``fast``     – minimal sizes, a few minutes end-to-end (CI smoke runs),
* ``standard`` – the default; small enough for a laptop CPU (tens of minutes)
                 while preserving the papers' qualitative orderings.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core import (
    ExperimentConfig,
    Trainer,
    build_design_batch,
    classification_metrics,
    load_design_suite,
    pretrain_link_model,
    regression_metrics,
    score_design_batch,
)
from repro.core.datasets import TEST_DESIGNS, TRAIN_DESIGNS
from repro.utils import seed_all
from repro.utils.rng import get_rng

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def _preset() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "standard").lower()


def bench_experiment_config() -> ExperimentConfig:
    """The experiment configuration used by every benchmark."""
    if _preset() == "fast":
        return (
            ExperimentConfig.fast()
            .with_model(dim=24, num_layers=2, attention="none", dropout=0.05)
            .with_train(epochs=4, batch_size=64, lr=3e-3)
            .with_data(scale=0.3, max_links_per_design=100, max_nodes_per_hop=16,
                       max_nodes_per_design=100)
        )
    return (
        ExperimentConfig.benchmark()
        .with_model(dim=32, num_layers=2, attention="none", dropout=0.1)
        .with_train(epochs=6, batch_size=64, lr=3e-3)
        .with_data(scale=0.4, max_links_per_design=150, max_nodes_per_hop=20,
                   max_nodes_per_design=150)
    )


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    seed_all(0)
    return bench_experiment_config()


@pytest.fixture(scope="session")
def suite(config):
    """All six designs of Table IV at the benchmark scale."""
    return load_design_suite(scale=config.data.scale, seed=config.data.seed)


@pytest.fixture(scope="session")
def train_designs(suite):
    return [suite[name] for name in TRAIN_DESIGNS]


@pytest.fixture(scope="session")
def test_designs(suite):
    return [suite[name] for name in TEST_DESIGNS]


@pytest.fixture(scope="session")
def pretrained(config, train_designs):
    """The link-prediction meta-learner shared by Tables V/VI and Fig. 4."""
    seed_all(config.train.seed)
    return pretrain_link_model(train_designs, config)


@pytest.fixture(scope="session")
def finetuned_variants(config, train_designs, pretrained):
    """CircuitGPS regression models: scratch, head-only and all-parameter fine-tuning.

    Shared between the Table VI benchmark and the Fig. 4 energy validation.
    """
    from repro.core import finetune_task

    task = "edge_regression"
    return {
        "CircuitGPS": finetune_task(train_designs, task, mode="scratch", config=config),
        "CircuitGPS-head-ft": finetune_task(train_designs, task, pretrained=pretrained.model,
                                            mode="head", config=config),
        "CircuitGPS-all-ft": finetune_task(train_designs, task, pretrained=pretrained.model,
                                           mode="all", config=config),
    }


def record_result(name: str, payload: dict) -> pathlib.Path:
    """Persist one experiment's rows under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float))
    return path


def fit_baseline(model, task: str, designs, config: ExperimentConfig, epochs: int):
    """Train a ParaGraph / DLPL-Cap ``model`` through :class:`Trainer` on one
    whole-design batch per design.

    Returns the baseline's RNG: it drew the training batches and goes on to
    draw each :func:`evaluate_baseline` design's batch, in call order.
    """
    rng = get_rng(config.train.seed)
    batches = [build_design_batch(design, task, config.data, rng=rng) for design in designs]
    Trainer(model, task=task, config=config.train).fit(batches, epochs=epochs)
    return rng


def evaluate_baseline(model, task: str, design, config: ExperimentConfig, rng) -> dict:
    """Classification or regression metrics of a baseline on one design."""
    batch = build_design_batch(design, task, config.data, rng=rng)
    scores = score_design_batch(model, batch, task)
    if task == "link":
        return classification_metrics(scores, batch.labels)
    return regression_metrics(scores, batch.targets)


def run_once(benchmark, func):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)

