"""``repro.api`` — the single public surface of the reproduction.

Everything a downstream user (or plugin author) needs lives here:

* **Registries** (:data:`BACKBONES`, :data:`ATTENTION`, :data:`HEADS`,
  :data:`ENCODINGS`, :data:`SAMPLERS`, :data:`TASKS`,
  :data:`LINT_RULES`) — decorator-based
  component registries; registering a class in one file makes it
  constructible from declarative config everywhere (CLI, checkpoints,
  serving).
* **Tasks** (:class:`Task` and the built-in
  :class:`LinkPredictionTask` / :class:`EdgeRegressionTask` /
  :class:`NodeRegressionTask` / :class:`GraphPropertyTask`) — first-class
  workload objects replacing the legacy ``task=`` strings, which still
  resolve via :func:`resolve_task`.
* **Specs** (:class:`ExperimentSpec`) — versioned, validated, declarative
  experiment descriptions with exact ``to_dict``/``from_dict`` round-trip;
  persisted in checkpoints (schema v3) so ``load`` rebuilds any registered
  component graph.
* **Facade** (:func:`fit`, :func:`evaluate`, :func:`annotate`,
  :func:`connect`, :func:`load`, :func:`list_components`) — the train-once / serve-many
  workflow behind ``python -m repro``.

Plugin authors additionally get :data:`repro.api.nn` (the autograd module
toolkit for writing custom backbones/heads) and the re-exported data types
(:class:`DesignData`, :class:`ExperimentConfig`, :class:`Pipeline`).  See
``docs/extending.md`` for the one-file walkthrough.

Submodules are loaded lazily (PEP 562), so ``import repro.api`` from a
component module never creates an import cycle.
"""

from __future__ import annotations

from .registries import (
    ATTENTION,
    BACKBONES,
    ENCODINGS,
    HEADS,
    LINT_RULES,
    REGISTRIES,
    SAMPLERS,
    TASKS,
    list_components,
    load_builtin_components,
)
from .registry import Registry, RegistryError

__all__ = [
    # registries
    "Registry",
    "RegistryError",
    "BACKBONES",
    "ATTENTION",
    "HEADS",
    "ENCODINGS",
    "SAMPLERS",
    "TASKS",
    "LINT_RULES",
    "REGISTRIES",
    "list_components",
    "load_builtin_components",
    # tasks
    "Task",
    "LinkPredictionTask",
    "EdgeRegressionTask",
    "NodeRegressionTask",
    "GraphPropertyTask",
    "resolve_task",
    # spec
    "ExperimentSpec",
    "SpecError",
    "SPEC_VERSION",
    # facade
    "fit",
    "evaluate",
    "annotate",
    "connect",
    "load",
    # re-exports for plugin authors
    "nn",
    "Pipeline",
    "AnnotationEngine",
    "DesignData",
    "ExperimentConfig",
]

# Lazy attribute -> "module:name" (module relative to this package unless it
# starts with "repro.").  Keeps `import repro.api` free of core/model imports.
_LAZY = {
    "Task": ".tasks",
    "LinkPredictionTask": ".tasks",
    "EdgeRegressionTask": ".tasks",
    "NodeRegressionTask": ".tasks",
    "GraphPropertyTask": ".tasks",
    "resolve_task": ".tasks",
    "ExperimentSpec": ".spec",
    "SpecError": ".spec",
    "SPEC_VERSION": ".spec",
    "fit": ".facade",
    "evaluate": ".facade",
    "annotate": ".facade",
    "connect": ".facade",
    "load": ".facade",
    "nn": "repro.nn",
    "Pipeline": ("repro.core.pipeline", "CircuitGPSPipeline"),
    "AnnotationEngine": ("repro.core.serve", "AnnotationEngine"),
    "DesignData": ("repro.core.datasets", "DesignData"),
    "ExperimentConfig": ("repro.core.config", "ExperimentConfig"),
}


def __getattr__(name: str):
    import importlib

    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if isinstance(target, tuple):
        module_name, attr = target
    elif target == "repro.nn":
        module_name, attr = target, None
    else:
        module_name, attr = target, name
    module = importlib.import_module(module_name, __name__)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
