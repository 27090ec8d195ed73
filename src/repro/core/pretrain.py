"""Pre-training of the CircuitGPS meta-learner on link prediction (Section III).

The model is trained to predict whether a coupling exists between a node pair,
using balanced positive/negative links pooled from the training designs.  The
result is the "meta-learner" that can be (a) evaluated zero-shot on unseen
designs and (b) fine-tuned for capacitance regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models import CircuitGPS
from ..utils.logging import MetricLogger
from ..utils.rng import get_rng, spawn_rng
from .config import ExperimentConfig
from .data import SubgraphDataset
from .datasets import DesignData, build_link_samples
from .trainer import Trainer

__all__ = ["PretrainResult", "build_model", "pretrain_link_model", "evaluate_zero_shot_link"]


@dataclass
class PretrainResult:
    """Outcome of link-prediction pre-training.

    ``train_samples`` / ``val_samples`` are the :class:`SubgraphDataset`
    halves of the shuffled sample set.
    """

    model: CircuitGPS
    trainer: Trainer
    history: MetricLogger
    train_samples: SubgraphDataset = field(default_factory=lambda: SubgraphDataset([]))
    val_samples: SubgraphDataset = field(default_factory=lambda: SubgraphDataset([]))
    config: ExperimentConfig | None = None

    @property
    def val_metrics(self) -> dict[str, float]:
        """Validation metrics of the trained model (empty if no validation split)."""
        if not self.val_samples:
            return {}
        return self.trainer.evaluate(self.val_samples)


def build_model(config: ExperimentConfig, pe_kind: str | None = None, rng=None,
                backbone: dict | str | None = None):
    """Instantiate the experiment's backbone model.

    Without ``backbone`` (or with a ``"circuitgps"`` spec) this builds the
    default :class:`CircuitGPS` from ``config.model``; a backbone spec merges
    its kwargs over the config first.  Any other spec builds through the
    :data:`repro.api.BACKBONES` registry, so registered custom backbones
    drive the same training/serving stack.
    """
    if backbone is not None:
        from dataclasses import fields

        from ..api.registries import BACKBONES
        from ..api.registry import Registry

        name, kwargs = Registry.spec_of(backbone)
        if name.lower() != "circuitgps":
            return BACKBONES.build(backbone, rng=rng)
        known = {f.name for f in fields(type(config.model))}
        overrides = {k: v for k, v in kwargs.items() if k in known}
        if overrides:
            config = config.with_model(**overrides)
    model_cfg = config.model
    return CircuitGPS(
        dim=model_cfg.dim,
        num_layers=model_cfg.num_layers,
        pe_kind=pe_kind if pe_kind is not None else model_cfg.pe_kind,
        pe_hidden=model_cfg.pe_hidden,
        mpnn=model_cfg.mpnn,
        attention=model_cfg.attention,
        num_heads=model_cfg.num_heads,
        dropout=model_cfg.dropout,
        stats_dim=model_cfg.stats_dim,
        rng=rng,
    )


def pretrain_link_model(designs: list[DesignData], config: ExperimentConfig | None = None,
                        pe_kind: str | None = None, val_fraction: float = 0.1,
                        verbose: bool = False, rng=None,
                        backbone: dict | str | None = None,
                        sampling=None) -> PretrainResult:
    """Pre-train the backbone on link prediction over the given training designs.

    ``backbone`` optionally names a registered backbone spec (see
    :func:`build_model`); the default is the paper's CircuitGPS.  ``sampling``
    optionally swaps in a custom sampling-pipeline spec
    (see :mod:`repro.graph.datapipe`) for the per-design link sampling.
    """
    config = config or ExperimentConfig.default()
    rng = get_rng(rng if rng is not None else config.train.seed)
    pe = pe_kind if pe_kind is not None else config.model.pe_kind

    samples = []
    for design in designs:
        samples.extend(build_link_samples(design, config.data, pe_kind=pe,
                                          rng=spawn_rng(rng), sampling=sampling))
    dataset = SubgraphDataset.from_samples(samples, pe_kind=pe).shuffled(rng)
    val_dataset, train_dataset = dataset.split(val_fraction)

    model = build_model(config, pe_kind=pe, rng=spawn_rng(rng), backbone=backbone)
    trainer = Trainer(model, task="link", config=config.train, rng=spawn_rng(rng))
    history = trainer.fit(train_dataset, val_dataset if val_dataset else None, verbose=verbose)
    return PretrainResult(model=model, trainer=trainer, history=history,
                          train_samples=train_dataset, val_samples=val_dataset, config=config)


def evaluate_zero_shot_link(result_or_model, design: DesignData,
                            config: ExperimentConfig | None = None,
                            pe_kind: str | None = None, rng=None) -> dict[str, float]:
    """Zero-shot link-prediction metrics of a (pre-)trained model on an unseen design."""
    config = config or ExperimentConfig.default()
    model = result_or_model.model if isinstance(result_or_model, PretrainResult) else result_or_model
    pe = pe_kind if pe_kind is not None else model.pe_kind
    # repro-lint: disable=no-global-rng -- fixed documented phase offset, not a per-item stream; pinned by golden-seed tests
    rng = get_rng(rng if rng is not None else config.data.seed + 1)
    samples = build_link_samples(design, config.data, pe_kind=pe, rng=rng)
    trainer = Trainer(model, task="link", config=config.train)
    metrics = trainer.evaluate(samples)
    metrics["num_samples"] = float(len(samples))
    return metrics
