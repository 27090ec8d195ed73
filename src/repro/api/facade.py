"""The high-level entry points of :mod:`repro.api`.

Six functions cover the full train-once / serve-many workflow, all driven
by declarative :class:`~repro.api.spec.ExperimentSpec` values and the
component registries:

* :func:`fit` — build + train the experiment a spec describes,
* :func:`evaluate` — zero-shot metrics of a trained/loaded pipeline,
* :func:`annotate` — run the serving engine over a netlist,
* :func:`connect` — client for a running ``repro serve`` annotation daemon,
* :func:`load` — rebuild a pipeline from a checkpoint artifact,
* :func:`list_components` — what is registered (``python -m repro components``).

Core modules are imported lazily so ``import repro.api`` stays cheap and
cycle-free; the heavy lifting lives in :mod:`repro.core`.
"""

from __future__ import annotations

from .registries import list_components  # noqa: F401  (re-exported)
from .spec import ExperimentSpec

__all__ = ["fit", "evaluate", "annotate", "connect", "load", "list_components"]


def _as_pipeline(target):
    """Accept a pipeline object or a checkpoint path."""
    from ..core.pipeline import CircuitGPSPipeline

    if isinstance(target, CircuitGPSPipeline):
        return target
    return load(target)


def fit(spec, designs=None, *, verbose: bool = False):
    """Train the experiment described by ``spec`` and return the pipeline.

    Parameters
    ----------
    spec:
        An :class:`ExperimentSpec`, a nested dict, JSON text / a JSON file
        path, or a legacy :class:`~repro.core.config.ExperimentConfig`.
    designs:
        Training/test designs — a list (or name->design mapping) of
        :class:`~repro.core.datasets.DesignData`.  ``None`` builds the
        paper's bundled design suite.

    The workflow follows the spec: the backbone is built through the
    :data:`~repro.api.registries.BACKBONES` registry, pre-trained on link
    prediction when ``spec.pretrain`` is true, then fine-tuned on the spec's
    task with the spec's mode.  A ``{"task": {"type": "link"}}`` spec stops
    after pre-training.  The returned pipeline carries the spec
    (``pipeline.spec``) and persists it in checkpoints (schema v3), so
    ``load`` can rebuild the exact component graph.
    """
    from ..core.pipeline import CircuitGPSPipeline

    spec = ExperimentSpec.coerce(spec)
    pipeline = CircuitGPSPipeline(spec.to_config(), backbone=spec.backbone)
    if designs is None:
        pipeline.load_designs()
    else:
        values = designs.values() if hasattr(designs, "values") else designs
        for design in values:
            pipeline.add_design(design)
    task = spec.build_task()
    if task.kind == "classification":
        pipeline.pretrain(verbose=verbose,
                          sampling=getattr(task, "sampling", None))
        return pipeline
    mode = spec.mode if spec.pretrain else "scratch"
    pipeline.finetune(mode=mode, task=task, verbose=verbose)
    return pipeline


def evaluate(target, design, task="edge_regression", mode: str = "all"
             ) -> dict[str, float]:
    """Zero-shot metrics of a trained pipeline (or checkpoint) on one design.

    ``design`` is a loaded design's name or a
    :class:`~repro.core.datasets.DesignData`; ``task`` resolves through the
    task registry (a name, spec dict or :class:`~repro.api.tasks.Task`).
    Classification tasks report link metrics, regression tasks the
    regression bundle of the matching fine-tuned head.
    """
    from .tasks import resolve_task

    pipeline = _as_pipeline(target)
    if not isinstance(design, str):
        pipeline.add_design(design)
        design = design.name
    task = resolve_task(task)
    if task.kind == "classification":
        return pipeline.evaluate_link(design)
    return pipeline.evaluate_regression(design, task=task, mode=mode)


def annotate(target, netlist, pairs=None, task="edge_regression",
             mode: str = "all", **engine_kwargs):
    """Annotate one netlist with a trained pipeline (or checkpoint path).

    Thin wrapper over :class:`~repro.core.serve.AnnotationEngine`; returns a
    :class:`~repro.core.serve.NetlistAnnotation`.  ``engine_kwargs`` pass
    through to the engine (``batch_size``, ``threshold``, ``workers``, ...)
    and ``pairs``/``seed``/``max_candidates`` to
    :meth:`~repro.core.serve.AnnotationEngine.annotate`.
    """
    from ..core.serve import AnnotationEngine

    pipeline = _as_pipeline(target)
    annotate_kwargs = {key: engine_kwargs.pop(key)
                       for key in ("max_candidates", "seed")
                       if key in engine_kwargs}
    engine = AnnotationEngine(pipeline, task=task, mode=mode, **engine_kwargs)
    return engine.annotate(netlist, pairs=pairs, **annotate_kwargs)


def connect(url: str, timeout: float = 60.0):
    """Client for a running annotation service (``python -m repro serve``).

    Returns a :class:`~repro.core.server.client.ServeClient` bound to
    ``url``; ``client.annotate(spice_text)`` then hits the resident daemon
    instead of loading an artifact in-process.
    """
    from ..core.server.client import ServeClient

    return ServeClient(url, timeout=timeout)


def load(path):
    """Rebuild a pipeline from a saved artifact (any registered backbone).

    Schema v3 artifacts carry their :class:`ExperimentSpec`, so the backbone
    and heads are rebuilt through the registries — including plugin
    components, provided their registering module has been imported.
    """
    from ..core.pipeline import CircuitGPSPipeline

    return CircuitGPSPipeline.from_checkpoint(path)
