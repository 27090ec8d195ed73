"""High-level public API: the end-to-end CircuitGPS pipeline.

:class:`CircuitGPSPipeline` glues together design generation, pre-training,
fine-tuning and zero-shot evaluation so downstream users (and the examples in
``examples/``) can run the full paper workflow in a few lines::

    pipeline = CircuitGPSPipeline(ExperimentConfig.fast())
    pipeline.load_designs()
    pipeline.pretrain()
    pipeline.finetune(mode="all")
    print(pipeline.evaluate_link("DIGITAL_CLK_GEN"))
    print(pipeline.evaluate_regression("DIGITAL_CLK_GEN"))

Annotating user netlists with predicted coupling capacitances is the job of
:class:`~repro.core.serve.AnnotationEngine`, built around a trained pipeline.
"""

from __future__ import annotations

import pathlib

from ..utils.logging import get_logger
from ..utils.serialization import (
    load_checkpoint,
    save_checkpoint,
    validate_state_keys,
)
from .config import ExperimentConfig
from .datasets import CapacitanceNormalizer, DesignData, load_design_suite
from .finetune import FinetuneResult, evaluate_task, finetune_task
from .pretrain import PretrainResult, build_model, evaluate_zero_shot_link, pretrain_link_model

__all__ = ["CircuitGPSPipeline", "PIPELINE_SCHEMA", "PIPELINE_SCHEMA_VERSION",
           "PIPELINE_ARTIFACT_NAME"]

logger = get_logger("repro.pipeline")

# Full-pipeline artifact format: bump the version whenever the key layout or
# metadata contract changes, so stale artifacts fail fast with CheckpointError.
# Only the current version loads.  v3 holds the model weights, optimizer and
# LR-schedule state under "optim.*" keys, the config/normalizer/design
# metadata and the declarative ExperimentSpec, and stamps every stored model
# with its registry "type", so load() can rebuild *any* registered
# backbone/head graph (plugins included), not just CircuitGPS.
PIPELINE_SCHEMA = "circuitgps-pipeline"
PIPELINE_SCHEMA_VERSION = 3
PIPELINE_ARTIFACT_NAME = "pipeline.npz"


class CircuitGPSPipeline:
    """End-to-end few-shot learning pipeline for AMS parasitic prediction."""

    def __init__(self, config: ExperimentConfig | None = None,
                 backbone: dict | str | None = None):
        self.config = config or ExperimentConfig.default()
        # Optional registered-backbone spec ({"type": name, **kwargs});
        # None means the config's CircuitGPS.  Set by repro.api.fit and
        # restored from schema-v3 checkpoints.
        self.backbone_spec = ({"type": backbone} if isinstance(backbone, str)
                              else dict(backbone) if backbone else None)
        self.designs: dict[str, DesignData] = {}
        self.pretrain_result: PretrainResult | None = None
        self.finetune_results: dict[tuple[str, str], FinetuneResult] = {}
        self.normalizer = CapacitanceNormalizer(self.config.data.cap_min, self.config.data.cap_max)
        # Filled by load(): the (name, split) registry saved with the artifact.
        self.design_registry: list[dict] = []

    # ------------------------------------------------------------------ #
    # Data
    # ------------------------------------------------------------------ #
    def load_designs(self, names: list[str] | None = None, scale: float | None = None,
                     seed: int | None = None) -> dict[str, DesignData]:
        """Generate (or fetch from cache) the design suite."""
        scale = scale if scale is not None else self.config.data.scale
        seed = seed if seed is not None else self.config.data.seed
        self.designs = load_design_suite(scale=scale, seed=seed, names=names)
        return self.designs

    def add_design(self, design: DesignData) -> None:
        """Register an externally built design (e.g. from a parsed SPICE file)."""
        self.designs[design.name] = design

    @property
    def train_designs(self) -> list[DesignData]:
        """Loaded designs with ``split == "train"``."""
        return [d for d in self.designs.values() if d.split == "train"]

    @property
    def test_designs(self) -> list[DesignData]:
        """Loaded designs with ``split == "test"``."""
        return [d for d in self.designs.values() if d.split == "test"]

    def _design(self, name: str) -> DesignData:
        if name not in self.designs:
            raise KeyError(f"design {name!r} not loaded; call load_designs() first")
        return self.designs[name]

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def pretrain(self, verbose: bool = False, sampling=None) -> PretrainResult:
        """Pre-train the meta-learner on link prediction over the training designs.

        ``sampling`` optionally names a custom sampling-pipeline spec for the
        link sampling (see :mod:`repro.graph.datapipe`).
        """
        if not self.train_designs:
            raise RuntimeError("no training designs loaded")
        self.pretrain_result = pretrain_link_model(self.train_designs, self.config,
                                                   verbose=verbose,
                                                   backbone=self.backbone_spec,
                                                   sampling=sampling)
        return self.pretrain_result

    def finetune(self, mode: str = "all", task="edge_regression",
                 verbose: bool = False) -> FinetuneResult:
        """Fine-tune any registered task (``mode`` in scratch/head/all).

        ``task`` is a :class:`repro.api.Task`, a registered name or a spec
        dict; results are stored under ``(task_name, mode)``.
        """
        from ..api.tasks import resolve_task

        task = resolve_task(task)
        pretrained = None
        if mode != "scratch":
            if self.pretrain_result is None:
                self.pretrain()
            pretrained = self.pretrain_result.model
        result = finetune_task(self.train_designs, task, pretrained=pretrained, mode=mode,
                               config=self.config, verbose=verbose,
                               backbone=self.backbone_spec)
        self.finetune_results[(task.name, mode)] = result
        return result

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_link(self, design_name: str) -> dict[str, float]:
        """Zero-shot link-prediction metrics on one (test) design."""
        if self.pretrain_result is None:
            raise RuntimeError("pretrain() must run before link evaluation")
        return evaluate_zero_shot_link(self.pretrain_result, self._design(design_name),
                                       self.config)

    def evaluate_regression(self, design_name: str, task="edge_regression",
                            mode: str = "all") -> dict[str, float]:
        """Zero-shot task metrics on one (test) design."""
        from ..api.tasks import resolve_task

        task = resolve_task(task)
        key = (task.name, mode)
        if key not in self.finetune_results:
            self.finetune(mode=mode, task=task)
        return evaluate_task(self.finetune_results[key], self._design(design_name),
                             task=task, config=self.config)

    # ------------------------------------------------------------------ #
    # Declarative view
    # ------------------------------------------------------------------ #
    def _component_meta(self, model) -> dict:
        """``{"type": registry_name, **model.config()}`` for one model.

        The name comes from the backbone registry's reverse lookup;
        factory-registered backbones (whose *class* is not the registry
        entry) fall back to this pipeline's ``backbone_spec`` type.  A model
        that cannot be named at all is stamped ``circuitgps`` with a loud
        warning — the resulting checkpoint would rebuild the wrong class.
        """
        from ..api.registries import BACKBONES
        from ..api.registry import Registry
        from ..models import CircuitGPS

        name = BACKBONES.name_of(model)
        if name is None and self.backbone_spec is not None:
            name = Registry.spec_of(self.backbone_spec)[0]
        if name is None:
            if not isinstance(model, CircuitGPS):
                logger.warning(
                    "model %s has no registered backbone name; stamping the "
                    "checkpoint as 'circuitgps', which will NOT reload this "
                    "model — register the backbone in repro.api.BACKBONES",
                    type(model).__name__,
                )
            name = "circuitgps"
        meta = {"type": name}
        if hasattr(model, "config"):
            meta.update(model.config())
        return meta

    @property
    def spec(self):
        """The :class:`repro.api.ExperimentSpec` describing this pipeline.

        Derived from the configuration, the (registered) backbone and the
        first fine-tuned task/mode; persisted in schema-v3 checkpoints so
        :meth:`load` can rebuild any registered component graph.
        """
        from ..api.spec import ExperimentSpec

        payload = self.config.as_dict()
        if self.pretrain_result is not None:
            backbone = self._component_meta(self.pretrain_result.model)
        elif self.backbone_spec is not None:
            backbone = dict(self.backbone_spec)
        else:
            backbone = {"type": "circuitgps", **payload["model"]}
        if self.finetune_results:
            task_name, mode = sorted(self.finetune_results)[0]
            result = self.finetune_results[(task_name, mode)]
            task_obj = getattr(result.trainer, "task_obj", None)
            task_spec = task_obj.spec() if task_obj is not None else {"type": task_name}
        else:
            task_spec, mode = {"type": "edge_regression"}, "all"
        return ExperimentSpec(backbone=backbone, task=task_spec,
                              train=payload["train"], data=payload["data"],
                              mode=mode,
                              name=payload.get("name", "experiment"))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def _artifact_path(path) -> pathlib.Path:
        """Resolve checkpoint paths: a directory (or extension-less path) maps
        to ``<dir>/pipeline.npz`` so CLI users can pass ``ckpt/`` around."""
        path = pathlib.Path(path)
        if path.is_dir() or path.suffix != ".npz":
            return path / PIPELINE_ARTIFACT_NAME
        return path

    def save(self, path) -> "pathlib.Path":
        """Save the full pipeline to one versioned ``.npz`` artifact.

        The archive bundles the pre-trained backbone, every fine-tuned head in
        :attr:`finetune_results`, each trainer's optimizer moments and
        LR-schedule position (``optim.*`` keys, so resumed training keeps its
        Adam state), the experiment configuration, the capacitance normaliser
        and the design registry (names + splits), under schema
        :data:`PIPELINE_SCHEMA` v:data:`PIPELINE_SCHEMA_VERSION`.
        ``path`` may be a directory, in which case ``pipeline.npz`` is written
        inside it.  Reload with :meth:`load` / :meth:`from_checkpoint`.
        """
        if self.pretrain_result is None:
            raise RuntimeError("nothing to save; run pretrain() first")
        path = self._artifact_path(path)
        model = self.pretrain_result.model
        state = {f"pretrain.{key}": value for key, value in model.state_dict().items()}
        state.update({f"optim.pretrain.{key}": value
                      for key, value in self.pretrain_result.trainer.state_dict().items()})
        finetunes = []
        for (task, mode), result in sorted(self.finetune_results.items()):
            prefix = f"finetune.{task}.{mode}."
            state.update({prefix + key: value
                          for key, value in result.model.state_dict().items()})
            state.update({f"optim.{prefix}{key}": value
                          for key, value in result.trainer.state_dict().items()})
            task_obj = getattr(result.trainer, "task_obj", None)
            finetunes.append({"task": task, "mode": mode,
                              # Full task spec (constructor kwargs included),
                              # so parameterized tasks rebuild exactly.
                              "task_spec": (task_obj.spec() if task_obj is not None
                                            else {"type": task}),
                              "model": self._component_meta(result.model)})
        metadata = {
            "experiment": self.config.as_dict(),
            "model": self._component_meta(model),
            "spec": self.spec.to_dict(),
            "finetunes": finetunes,
            "normalizer": {"cap_min": self.normalizer.cap_min,
                           "cap_max": self.normalizer.cap_max},
            # Re-saving a loaded pipeline (no designs built) keeps the
            # registry that came with the artifact.
            "designs": ([{"name": d.name, "split": d.split} for d in self.designs.values()]
                        or list(self.design_registry)),
        }
        save_checkpoint(path, state, metadata,
                        schema=PIPELINE_SCHEMA, version=PIPELINE_SCHEMA_VERSION)
        logger.info("saved pipeline artifact to %s (%d finetune heads)",
                    path, len(finetunes))
        return path

    @classmethod
    def from_checkpoint(cls, path) -> "CircuitGPSPipeline":
        """Build a fresh pipeline from a saved artifact (serving entry point)."""
        pipeline = cls()
        pipeline.load(path)
        return pipeline

    @classmethod
    def from_models(cls, config: ExperimentConfig, link_model,
                    heads: dict[tuple[str, str], object] | None = None,
                    normalizer: CapacitanceNormalizer | None = None,
                    task_specs: dict[tuple[str, str], dict] | None = None
                    ) -> "CircuitGPSPipeline":
        """Assemble a pipeline around already-built models without training.

        ``heads`` maps ``(task, mode)`` to a fine-tuned model; ``task_specs``
        optionally maps the same keys to full task specs, so parameterized
        tasks (and :meth:`load`) rebuild with their saved constructor kwargs.
        """
        from ..utils.logging import MetricLogger
        from .trainer import Trainer

        pipeline = cls(config)
        if normalizer is not None:
            pipeline.normalizer = normalizer
        pipeline.pretrain_result = PretrainResult(
            model=link_model, trainer=Trainer(link_model, task="link", config=config.train),
            history=MetricLogger("loaded"), config=config,
        )
        for (task, mode), model in (heads or {}).items():
            trainer_task = (task_specs or {}).get((task, mode), task)
            pipeline.finetune_results[(task, mode)] = FinetuneResult(
                model=model, trainer=Trainer(model, task=trainer_task, config=config.train),
                history=MetricLogger("loaded"), mode=mode, task=task,
                normalizer=pipeline.normalizer, config=config,
            )
        return pipeline

    @staticmethod
    def _build_stored_model(config: ExperimentConfig, meta: dict
                            ) -> tuple[object, ExperimentConfig]:
        """Rebuild one stored model from its checkpoint metadata entry.

        Entries stamped with a registry ``"type"`` build through
        :data:`repro.api.BACKBONES` — any registered backbone, plugins
        included, provided their registering module is imported.
        ``"circuitgps"`` entries take the config-driven path; the returned
        config carries the merged model fields in that case.
        """
        from dataclasses import fields

        meta = dict(meta or {})
        model_type = str(meta.pop("type", "circuitgps")).lower()
        if model_type == "circuitgps":
            known = {f.name for f in fields(type(config.model))}
            config = config.with_model(**{k: v for k, v in meta.items() if k in known})
            return build_model(config), config
        from ..api.registries import BACKBONES

        return BACKBONES.build({"type": model_type, **meta}), config

    def load(self, path) -> PretrainResult:
        """Load an artifact saved by :meth:`save` into this pipeline.

        Restores the backbone, all fine-tuned heads, the configuration, the
        normaliser and the optimizer / LR-schedule state of every trainer.
        Only :data:`PIPELINE_SCHEMA` v:data:`PIPELINE_SCHEMA_VERSION`
        archives load: any other schema or version, a schema-less archive,
        and missing/unexpected weight keys raise
        :class:`~repro.utils.serialization.CheckpointError` before any tensor
        is copied.
        """
        path = self._artifact_path(path)
        state, metadata = load_checkpoint(path, schema=PIPELINE_SCHEMA,
                                          version=PIPELINE_SCHEMA_VERSION)
        config = ExperimentConfig.from_dict(metadata.get("experiment", {}))

        # Optimizer/schedule state rides under "optim." keys and
        # is restored into the rebuilt trainers after the models load; model
        # weight keys are still validated exactly.
        optim_state = {key: value for key, value in state.items()
                       if key.startswith("optim.")}
        state = {key: value for key, value in state.items()
                 if not key.startswith("optim.")}

        model_meta = dict(metadata.get("model", {}))
        link_model, config = self._build_stored_model(config, model_meta)
        expected = {f"pretrain.{key}" for key in link_model.state_dict()}
        finetunes = metadata.get("finetunes", [])
        head_models: dict[tuple[str, str], object] = {}
        task_specs: dict[tuple[str, str], dict] = {}
        for entry in finetunes:
            head, _ = self._build_stored_model(config, entry.get("model", {}))
            head_key = (entry["task"], entry["mode"])
            head_models[head_key] = head
            task_specs[head_key] = entry.get("task_spec", {"type": entry["task"]})
            prefix = f"finetune.{entry['task']}.{entry['mode']}."
            expected |= {prefix + key for key in head.state_dict()}
        validate_state_keys(state, expected, context=f"pipeline checkpoint {path}")

        link_model.load_state_dict(
            {key[len("pretrain."):]: value for key, value in state.items()
             if key.startswith("pretrain.")}
        )
        for (task, mode), head in head_models.items():
            prefix = f"finetune.{task}.{mode}."
            head.load_state_dict(
                {key[len(prefix):]: value for key, value in state.items()
                 if key.startswith(prefix)}
            )

        norm = metadata.get("normalizer", {})
        normalizer = CapacitanceNormalizer(norm.get("cap_min", config.data.cap_min),
                                           norm.get("cap_max", config.data.cap_max))
        loaded = CircuitGPSPipeline.from_models(config, link_model, heads=head_models,
                                                normalizer=normalizer,
                                                task_specs=task_specs)
        self._restore_trainer_state(loaded.pretrain_result.trainer, optim_state,
                                    "optim.pretrain.")
        for (task, mode), result in loaded.finetune_results.items():
            self._restore_trainer_state(result.trainer, optim_state,
                                        f"optim.finetune.{task}.{mode}.")
        self.config = loaded.config
        self.normalizer = loaded.normalizer
        self.pretrain_result = loaded.pretrain_result
        self.finetune_results = loaded.finetune_results
        self.design_registry = metadata.get("designs", [])
        # Remember a non-default backbone so further fine-tunes rebuild it.
        model_type = str(metadata.get("model", {}).get("type", "circuitgps")).lower()
        self.backbone_spec = (dict(metadata["model"]) if model_type != "circuitgps"
                              else None)
        return self.pretrain_result

    @staticmethod
    def _restore_trainer_state(trainer, optim_state: dict, prefix: str) -> None:
        """Load one trainer's optimizer/schedule state; warn-and-skip on mismatch.

        A mismatch is legitimate: e.g. a head-only fine-tune optimised fewer
        parameters than the full model the reloaded trainer tracks.  Training
        then resumes with fresh moments instead of failing the load.
        """
        sub = {key[len(prefix):]: value for key, value in optim_state.items()
               if key.startswith(prefix)}
        if not sub:
            return
        try:
            trainer.load_state_dict(sub)
        except (ValueError, KeyError) as exc:
            logger.warning("not restoring optimizer state under %r: %s", prefix, exc)
