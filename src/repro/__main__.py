"""``python -m repro`` — the command-line entry point.

See :mod:`repro.core.cli` for the subcommands (train / annotate /
reannotate / serve / evaluate / report / components / lint) and
``docs/architecture.md`` for the workflow they implement; ``train --spec``
consumes declarative :class:`repro.api.ExperimentSpec` JSON files and
``serve`` runs the persistent micro-batching annotation daemon
(:mod:`repro.core.server`).
"""

from .core.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
