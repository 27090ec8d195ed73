"""Declarative experiment specification: one nested dict drives everything.

An :class:`ExperimentSpec` is the JSON-serialisable description of a full
experiment — which backbone to build, which task to train, how to fine-tune,
and the training/data hyper-parameters::

    {
        "version": 1,
        "name": "my-experiment",
        "backbone": {"type": "circuitgps", "dim": 48, "num_layers": 3},
        "task": {"type": "edge_regression"},
        "mode": "all",
        "pretrain": true,
        "train": {"epochs": 20, "lr": 3e-3},
        "data": {"scale": 0.5}
    }

Component types resolve through the :mod:`repro.api.registries` registries,
so a spec can name *any* registered backbone or task — including plugins
registered outside this package.  Validation is eager and actionable: an
unknown backbone fails with ``unknown backbone 'gpsx', available: ...``
rather than a ``KeyError`` mid-build.  ``from_dict(to_dict(spec))`` is the
identity, and pipeline checkpoints (schema v3) persist the spec so
:meth:`repro.core.pipeline.CircuitGPSPipeline.load` can rebuild any
registered component graph.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, fields

from ..core.config import DataConfig, ExperimentConfig, ModelConfig, TrainConfig
from .registries import BACKBONES, TASKS
from .registry import Registry

__all__ = ["ExperimentSpec", "SpecError", "SPEC_VERSION"]

SPEC_VERSION = 1
MODES = ("scratch", "head", "all")

_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}
_DATA_FIELDS = {f.name for f in fields(DataConfig)}
_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}


class SpecError(ValueError):
    """An experiment spec is malformed (unknown keys, bad types, bad version)."""


def _component_spec(value, registry, label: str) -> dict:
    """Normalise + validate one component entry to ``{"type": name, ...}``."""
    if isinstance(value, str):
        value = {"type": value}
    if not isinstance(value, dict) or "type" not in value:
        raise SpecError(
            f"spec {label!r} must be a component name or a {{'type': ...}} dict, "
            f"got {value!r}"
        )
    registry.get(value["type"])  # raises RegistryError listing available names
    return dict(value)


def _check_known_keys(payload: dict, known: set[str], label: str) -> None:
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError(
            f"unknown {label} key(s) {unknown}, valid keys: {sorted(known)}"
        )


def _drop_numpy_backend(payload: dict) -> dict:
    """Accept the ``"backend": "numpy"`` pair that every older spec carries.

    Specs used to name a compute backend, and every spec written before it
    was removed holds ``"backend": "numpy"``.  numpy is the only engine, so
    that exact pair is dropped; any other backend value is an error.
    """
    if "backend" not in payload:
        return payload
    if payload["backend"] != "numpy":
        raise SpecError(
            f"spec backend {payload['backend']!r} is not supported: numpy is "
            f"the only compute engine (drop the 'backend' key)"
        )
    return {key: value for key, value in payload.items() if key != "backend"}


@dataclass
class ExperimentSpec:
    """Versioned, validated, JSON-round-trippable experiment description."""

    backbone: dict = field(default_factory=lambda: {"type": "circuitgps"})
    task: dict = field(default_factory=lambda: {"type": "edge_regression"})
    train: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    mode: str = "all"
    pretrain: bool = True
    sampling: list | str | None = None
    name: str = "experiment"
    version: int = SPEC_VERSION

    def __post_init__(self):
        if isinstance(self.backbone, str):
            self.backbone = {"type": self.backbone}
        if isinstance(self.task, str):
            self.task = {"type": self.task}

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ExperimentSpec":
        """Check the spec against the registries and config schemas.

        Raises :class:`SpecError` (or a registry ``ValueError`` naming the
        available components) with an actionable message; returns ``self``
        so calls chain.
        """
        if not isinstance(self.version, int) or self.version < 1:
            raise SpecError(f"spec version must be a positive int, got {self.version!r}")
        if self.version > SPEC_VERSION:
            raise SpecError(
                f"spec version {self.version} is newer than the supported "
                f"version {SPEC_VERSION}; upgrade repro to use this spec"
            )
        self.backbone = _component_spec(self.backbone, BACKBONES, "backbone")
        self.task = _component_spec(self.task, TASKS, "task")
        if self.mode not in MODES:
            raise SpecError(f"spec mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.pretrain, bool):
            raise SpecError(f"spec pretrain must be a bool, got {self.pretrain!r}")
        if self.sampling is not None:
            from ..graph.datapipe import normalize_sampling_spec

            self.sampling = normalize_sampling_spec(self.sampling)
        _check_known_keys(self.train, _TRAIN_FIELDS, "train")
        _check_known_keys(self.data, _DATA_FIELDS, "data")
        return self

    # ------------------------------------------------------------------ #
    # Serialisation round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The nested plain-dict form; ``from_dict`` inverts it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Build and validate a spec from its :meth:`to_dict` form."""
        if not isinstance(payload, dict):
            raise SpecError(f"experiment spec must be a dict, got {type(payload).__name__}")
        payload = _drop_numpy_backend(payload)
        known = {f.name for f in fields(cls)}
        _check_known_keys(payload, known, "experiment-spec")
        return cls(**payload).validate()

    def to_json(self, path=None) -> str:
        """JSON text of :meth:`to_dict`; also written to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            pathlib.Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source) -> "ExperimentSpec":
        """Parse a spec from JSON text or a JSON file path."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = pathlib.Path(source).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"experiment spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # Bridges to the config layer
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ExperimentConfig, task="edge_regression",
                    mode: str = "all", pretrain: bool = True) -> "ExperimentSpec":
        """Lift a legacy :class:`ExperimentConfig` (plus a task) into a spec."""
        payload = config.as_dict()  # strips per-machine worker counts
        backbone = {"type": "circuitgps", **payload["model"]}
        task_spec = task.spec() if hasattr(task, "spec") else task
        return cls(backbone=backbone, task=task_spec, train=payload["train"],
                   data=payload["data"], mode=mode, pretrain=pretrain,
                   name=payload.get("name", "experiment")).validate()

    def to_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` view (model fields apply to circuitgps)."""
        model_kwargs = {key: value for key, value in self.backbone.items()
                        if key in _MODEL_FIELDS}
        return ExperimentConfig(
            model=ModelConfig(**model_kwargs),
            train=TrainConfig(**{k: v for k, v in self.train.items()
                                 if k in _TRAIN_FIELDS}),
            data=DataConfig(**{k: v for k, v in self.data.items()
                               if k in _DATA_FIELDS}),
            name=self.name,
        )

    @classmethod
    def coerce(cls, value) -> "ExperimentSpec":
        """Accept a spec, a dict, JSON text/path or an ``ExperimentConfig``."""
        if isinstance(value, cls):
            return value.validate()
        if isinstance(value, ExperimentConfig):
            return cls.from_config(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (str, pathlib.Path)):
            return cls.from_json(value)
        raise SpecError(
            f"cannot build an ExperimentSpec from {type(value).__name__}"
        )

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    @property
    def backbone_type(self) -> str:
        """The backbone's registered name."""
        return Registry.spec_of(self.backbone)[0]

    @property
    def task_type(self) -> str:
        """The task's registered name."""
        return Registry.spec_of(self.task)[0]

    @property
    def finetune_mode(self) -> str:
        """The mode the task is fine-tuned in: ``scratch`` without pre-training."""
        return self.mode if self.pretrain else "scratch"

    def build_backbone(self, rng=None):
        """Instantiate the backbone through the registry."""
        return BACKBONES.build(self.backbone, rng=rng)

    def build_task(self):
        """Instantiate the task through the registry.

        A spec-level ``sampling`` pipeline is applied to tasks that carry
        none of their own (a task-level ``sampling`` entry wins).
        """
        from .tasks import resolve_task

        task = resolve_task(self.task)
        if self.sampling is not None and getattr(task, "sampling", None) is None:
            task.sampling = self.sampling
        return task
