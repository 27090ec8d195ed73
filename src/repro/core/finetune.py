"""Task fine-tuning of the pre-trained meta-learner.

Section III-E describes two fine-tuning strategies on top of the link-
prediction meta-learner:

* **head-ft** — freeze the encoders and GPS layers, train only the
  task-specific regression head (fast convergence),
* **all-ft**  — continue training all parameters with the pre-trained weights
  as initialisation (best accuracy).

For comparison, ``mode="scratch"`` trains the same architecture directly on
the downstream task without pre-training (the plain "CircuitGPS" rows in
Tables VI/VIII).

:func:`finetune_task` is the generic entry point: it accepts any task
registered in :data:`repro.api.TASKS` (and any backbone registered in
:data:`repro.api.BACKBONES` via the ``backbone`` spec), so a new workload
plugs in without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..models import CircuitGPS
from ..utils.logging import MetricLogger
from ..utils.rng import get_rng, spawn_rng
from .config import ExperimentConfig
from .data import SubgraphDataset
from .datasets import CapacitanceNormalizer, DesignData
from .pretrain import build_model
from .trainer import Trainer

__all__ = [
    "FinetuneResult",
    "FINETUNE_MODES",
    "TrainedModel",
    "finetune_task",
    "evaluate_task",
    "evaluate_regression",
]

FINETUNE_MODES = ("scratch", "head", "all")


@runtime_checkable
class TrainedModel(Protocol):
    """Structural type of a trained backbone accepted by the evaluators.

    Anything with ``state_dict``/``eval`` and a batch-callable forward
    qualifies — every :class:`repro.nn.Module` subclass does.  The explicit
    protocol lets :func:`evaluate_regression` reject wrong arguments with a
    ``TypeError`` up front instead of failing on a missing attribute deep in
    the evaluation loop.
    """

    def state_dict(self) -> dict:
        """Flat name -> array map of the model's weights."""
        ...

    def eval(self) -> None:
        """Switch the model to inference mode (dropout off, BN frozen)."""
        ...

    def __call__(self, batch, task):
        """Per-subgraph predictions for one batch under the given task."""
        ...


@dataclass
class FinetuneResult:
    """Outcome of a task fine-tuning run."""

    model: CircuitGPS
    trainer: Trainer
    history: MetricLogger
    mode: str
    task: str
    normalizer: CapacitanceNormalizer
    train_samples: SubgraphDataset = field(default_factory=lambda: SubgraphDataset([]))
    val_samples: SubgraphDataset = field(default_factory=lambda: SubgraphDataset([]))
    config: ExperimentConfig | None = None


def _clone_pretrained(pretrained, config: ExperimentConfig, rng,
                      backbone: dict | str | None = None) -> object:
    """A freshly built copy of ``pretrained`` carrying its weights.

    CircuitGPS backbones rebuild through the config layer from their full
    ``config()`` (every constructor kwarg, so head count and dropout match
    the pre-trained model, not the fine-tune config); any other registered
    backbone rebuilds through :data:`repro.api.BACKBONES` from its
    ``config()``.  ``backbone`` supplies the registry name when the reverse
    lookup cannot (factory-registered backbones whose class is not the
    registry entry).
    """
    if isinstance(pretrained, CircuitGPS):
        model = build_model(config.with_model(**pretrained.config()), rng=rng)
    else:
        from ..api.registries import BACKBONES
        from ..api.registry import Registry

        name = BACKBONES.name_of(pretrained)
        if name is None and backbone is not None:
            name = Registry.spec_of(backbone)[0]
        if name is None:
            raise ValueError(
                f"pre-trained model {type(pretrained).__name__} is not a "
                "registered backbone; register it in repro.api.BACKBONES"
            )
        model = BACKBONES.build({"type": name, **pretrained.config()}, rng=rng)
    model.load_state_dict(pretrained.state_dict())
    if hasattr(model, "unfreeze_backbone"):
        model.unfreeze_backbone()
    return model


def finetune_task(designs: list[DesignData], task, pretrained=None,
                  mode: str = "all", config: ExperimentConfig | None = None,
                  pe_kind: str | None = None, val_fraction: float = 0.1,
                  epochs: int | None = None, verbose: bool = False, rng=None,
                  backbone: dict | str | None = None) -> FinetuneResult:
    """Fine-tune (or train from scratch) any registered task on ``designs``.

    Parameters
    ----------
    designs:
        Training designs.
    task:
        A :class:`repro.api.Task`, a registered task name or a task spec
        dict.
    pretrained:
        The pre-trained meta-learner.  Required for modes ``"head"`` and
        ``"all"``; ignored for ``"scratch"``.
    mode:
        One of :data:`FINETUNE_MODES`.
    backbone:
        Optional backbone spec for ``mode="scratch"`` (defaults to the
        config's CircuitGPS); non-scratch modes clone ``pretrained``.
    """
    from ..api.tasks import resolve_task

    task = resolve_task(task)
    if mode not in FINETUNE_MODES:
        raise ValueError(f"mode must be one of {FINETUNE_MODES}, got {mode!r}")
    if mode != "scratch" and pretrained is None:
        raise ValueError(f"mode {mode!r} requires a pre-trained model")

    config = config or ExperimentConfig.default()
    # repro-lint: disable=no-global-rng -- fixed documented phase offset, not a per-item stream; pinned by golden-seed tests
    rng = get_rng(rng if rng is not None else config.train.seed + 10)
    normalizer = CapacitanceNormalizer(config.data.cap_min, config.data.cap_max)

    if mode == "scratch":
        model = build_model(config, pe_kind=pe_kind, rng=spawn_rng(rng), backbone=backbone)
    else:
        model = _clone_pretrained(pretrained, config, rng=spawn_rng(rng),
                                  backbone=backbone)

    pe = pe_kind if pe_kind is not None else getattr(model, "pe_kind", config.model.pe_kind)
    dataset = task.build_dataset(designs, config.data, pe_kind=pe,
                                 normalizer=normalizer, rng=rng)
    val_dataset, train_dataset = dataset.split(val_fraction)

    if mode == "head":
        if not (hasattr(model, "freeze_backbone") and hasattr(model, "head_parameters")):
            raise ValueError(
                "mode 'head' needs a backbone implementing freeze_backbone() "
                f"and head_parameters(); {type(model).__name__} does not"
            )
        model.freeze_backbone()
        parameters = model.head_parameters(task.head_task)
    else:
        parameters = None

    trainer = Trainer(model, task=task, config=config.train, parameters=parameters,
                      rng=spawn_rng(rng))
    history = trainer.fit(train_dataset, val_dataset if val_dataset else None,
                          epochs=epochs, verbose=verbose)
    return FinetuneResult(model=model, trainer=trainer, history=history, mode=mode,
                          task=task.name, normalizer=normalizer,
                          train_samples=train_dataset, val_samples=val_dataset,
                          config=config)


def _require_regression(task) -> object:
    from ..api.tasks import resolve_task

    task = resolve_task(task)
    if task.kind != "regression":
        raise ValueError(f"task must be a regression task, got {task.name!r}")
    return task


def evaluate_task(result_or_model, design: DesignData, task,
                  config: ExperimentConfig | None = None, pe_kind: str | None = None,
                  normalizer: CapacitanceNormalizer | None = None,
                  rng=None) -> dict[str, float]:
    """Zero-shot metrics of a fine-tuned model on an unseen design.

    ``result_or_model`` is either a :class:`FinetuneResult` or a trained
    model satisfying the :class:`TrainedModel` protocol; anything else
    raises ``TypeError`` immediately (no duck-typed failures downstream).
    """
    from ..api.tasks import resolve_task

    task = resolve_task(task)
    config = config or ExperimentConfig.default()
    if isinstance(result_or_model, FinetuneResult):
        model = result_or_model.model
        normalizer = normalizer or result_or_model.normalizer
    elif isinstance(result_or_model, TrainedModel):
        model = result_or_model
        normalizer = normalizer or CapacitanceNormalizer(config.data.cap_min,
                                                         config.data.cap_max)
    else:
        raise TypeError(
            "evaluate expects a FinetuneResult or a trained model "
            "(state_dict()/eval()/callable on batches), got "
            f"{type(result_or_model).__name__}"
        )
    pe = pe_kind if pe_kind is not None else getattr(model, "pe_kind", config.model.pe_kind)
    # repro-lint: disable=no-global-rng -- fixed documented phase offset, not a per-item stream; pinned by golden-seed tests
    rng = get_rng(rng if rng is not None else config.data.seed + 2)
    samples = task.build_samples(design, config.data, pe_kind=pe,
                                 normalizer=normalizer, rng=rng)
    trainer = Trainer(model, task=task, config=config.train)
    metrics = trainer.evaluate(samples)
    metrics["num_samples"] = float(len(samples))
    return metrics


def evaluate_regression(result_or_model, design: DesignData, task: str = "edge_regression",
                        config: ExperimentConfig | None = None, pe_kind: str | None = None,
                        normalizer: CapacitanceNormalizer | None = None,
                        rng=None) -> dict[str, float]:
    """Zero-shot regression metrics of a fine-tuned model on an unseen design.

    Accepts a :class:`FinetuneResult` or a :class:`TrainedModel`; any other
    argument raises ``TypeError`` with the expected types named.
    """
    task = _require_regression(task)
    return evaluate_task(result_or_model, design, task, config=config,
                         pe_kind=pe_kind, normalizer=normalizer, rng=rng)
