"""The public component registries of :mod:`repro.api`.

One :class:`~repro.api.registry.Registry` instance per pluggable component
family.  The built-in components register themselves with a decorator in the
module that defines them (``repro.models.circuitgps`` registers the
``"circuitgps"`` backbone, ``repro.nn.attention`` the ``"transformer"``
attention kernel, ...); :func:`load_builtin_components` imports those modules
on first lookup so the registries are always populated, regardless of import
order.

=============  ==========================================================
Registry       Contents
=============  ==========================================================
``BACKBONES``  trunk models mapping a ``SubgraphBatch`` to predictions
``ATTENTION``  global-attention kernels used inside GPS layers
``HEADS``      task-head modules (pool + MLP readouts)
``ENCODINGS``  positional/structural encodings (``pe_kind`` values)
``SAMPLERS``   sampling-pipeline stage factories (uniform
               ``(graph, seeds, *, rng)`` contract; see
               :mod:`repro.graph.datapipe`)
``TASKS``      :class:`~repro.api.tasks.Task` implementations
``LINT_RULES`` static-analysis rules of ``repro lint``
               (:class:`~repro.analysis.lint.core.LintRule`)
=============  ==========================================================
"""

from __future__ import annotations

from .registry import Registry

__all__ = [
    "BACKBONES",
    "ATTENTION",
    "HEADS",
    "ENCODINGS",
    "SAMPLERS",
    "TASKS",
    "LINT_RULES",
    "REGISTRIES",
    "load_builtin_components",
    "list_components",
]

_loaded = False


def load_builtin_components() -> None:
    """Import every module that registers a built-in component (idempotent)."""
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first: the imports below hit the registries again
    import repro.graph.encodings   # noqa: F401  (ENCODINGS)
    import repro.graph.datapipe    # noqa: F401  (SAMPLERS: pipeline stages)
    import repro.nn.attention      # noqa: F401  (ATTENTION: transformer)
    import repro.nn.performer      # noqa: F401  (ATTENTION: performer)
    import repro.models.heads      # noqa: F401  (HEADS)
    import repro.models.circuitgps  # noqa: F401  (BACKBONES)
    import repro.api.tasks         # noqa: F401  (TASKS)
    import repro.workloads         # noqa: F401  (TASKS/SAMPLERS: workload plugins)
    import repro.analysis.lint.rules  # noqa: F401  (LINT_RULES)


BACKBONES = Registry("backbone", ensure_loaded=load_builtin_components)
ATTENTION = Registry("attention kernel", ensure_loaded=load_builtin_components)
HEADS = Registry("head", ensure_loaded=load_builtin_components)
ENCODINGS = Registry("positional encoding", ensure_loaded=load_builtin_components)
SAMPLERS = Registry("sampler", ensure_loaded=load_builtin_components)
TASKS = Registry("task", ensure_loaded=load_builtin_components)
LINT_RULES = Registry("lint rule", ensure_loaded=load_builtin_components)

REGISTRIES: dict[str, Registry] = {
    "backbones": BACKBONES,
    "attention": ATTENTION,
    "heads": HEADS,
    "encodings": ENCODINGS,
    "samplers": SAMPLERS,
    "tasks": TASKS,
    "lint_rules": LINT_RULES,
}


def list_components() -> dict[str, list[str]]:
    """Registered component names per registry (the ``components`` CLI view)."""
    return {family: registry.names() for family, registry in REGISTRIES.items()}
