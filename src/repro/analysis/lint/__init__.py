"""``repro lint`` — registry-driven static analysis of the repo's contracts.

An AST-based lint framework in the repo's own idiom: rules are components
registered into :data:`repro.api.LINT_RULES` (the same
:class:`~repro.api.registry.Registry` mechanism as backbones or samplers),
each enforcing a determinism / dtype / fork-safety contract that a shipped
PR previously broke by hand.  Run it as::

    python -m repro lint src/ [--format json] [--baseline FILE]

or programmatically via :func:`run_lint` / :func:`lint_source`.  See
:mod:`repro.analysis.lint.rules` for the built-in rule set and
``docs/extending.md`` for writing a custom rule.
"""

from ...api.registries import LINT_RULES
from .core import (
    Finding,
    LintReport,
    LintRule,
    SEVERITIES,
    format_findings,
    iter_python_files,
    lint_file,
    lint_source,
    load_baseline,
    report_to_json,
    resolve_rules,
    run_lint,
    write_baseline,
)

__all__ = [
    "LINT_RULES",
    "Finding",
    "LintRule",
    "LintReport",
    "SEVERITIES",
    "lint_source",
    "lint_file",
    "run_lint",
    "iter_python_files",
    "resolve_rules",
    "load_baseline",
    "write_baseline",
    "format_findings",
    "report_to_json",
]
