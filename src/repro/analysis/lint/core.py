"""The ``repro lint`` engine: findings, suppression, baseline and the walker.

This module is rule-agnostic.  It knows how to walk a source tree, parse each
file once, hand the AST to every registered :class:`LintRule`
(:data:`repro.api.LINT_RULES`), honour inline suppression comments, subtract
a committed baseline of grandfathered findings, and render the survivors as
human diagnostics (``path:line:col`` anchors) or machine-readable JSON.  The
rules themselves — each pinned to a historical bug class of this repo — live
in :mod:`repro.analysis.lint.rules`.

Suppression grammar
-------------------
A finding is silenced by a comment naming its rule::

    value = np.float64(raw)  # repro-lint: disable=no-naked-dtype -- wire format

* ``disable=rule-a,rule-b`` on the *same line* as the finding, or on a
  standalone comment line *directly above* it, silences those rules there.
* ``disable-file=rule-a`` anywhere in the file silences the rule file-wide.
* ``disable=all`` silences every rule.
* Every suppression **must** carry a justification after `` -- `` — an
  unjustified or malformed directive is itself reported (rule
  ``lint-suppression``), so grandfathering always leaves a paper trail.

Baseline
--------
:func:`write_baseline` records the fingerprints of the current findings;
:func:`run_lint` with that baseline reports only *new* findings.  A
fingerprint hashes ``(path, rule, normalised source line)`` — not the line
*number* — so unrelated edits shifting code around do not resurrect
grandfathered findings.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import io
import json
import pathlib
import re
import tokenize
from typing import Iterable, Protocol, Sequence, runtime_checkable

from ...api.registries import LINT_RULES

__all__ = [
    "Finding",
    "LintRule",
    "LintReport",
    "SEVERITIES",
    "lint_source",
    "lint_file",
    "run_lint",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "format_findings",
    "report_to_json",
    "resolve_rules",
]

#: Recognised severities, most severe first (used for ordering output).
SEVERITIES = ("error", "warning", "info")

#: Framework-level finding kinds that are not registered rules.
PARSE_ERROR_RULE = "parse-error"
SUPPRESSION_RULE = "lint-suppression"

BASELINE_VERSION = 1
REPORT_VERSION = 1

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+?)\s*(?:--\s*(?P<reason>.*\S)\s*)?$"
)
_ANY_DIRECTIVE = re.compile(r"#\s*repro-lint:")


@dataclasses.dataclass
class Finding:
    """One diagnostic anchored to ``path:line:col``.

    ``line`` is 1-based and ``col`` 0-based (AST convention); the rendered
    anchor shows ``col + 1``.  ``source`` holds the stripped source line the
    finding points at and feeds the line-drift-stable :meth:`fingerprint`.
    """

    rule: str
    path: str
    line: int
    message: str
    col: int = 0
    severity: str = "error"
    source: str = ""

    def location(self) -> str:
        """The clickable ``path:line:col`` anchor of this finding."""
        return f"{self.path}:{self.line}:{self.col + 1}"

    def fingerprint(self) -> str:
        """Stable identity for baselines: hashes path + rule + source text.

        Deliberately excludes the line *number*, so grandfathered findings
        survive unrelated edits that shift code up or down the file.
        """
        key = f"{self.path}::{self.rule}::{self.source}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict:
        """The JSON-serialisable form used by ``--format json``."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source": self.source,
            "fingerprint": self.fingerprint(),
        }


@runtime_checkable
class LintRule(Protocol):
    """Structural type every registered lint rule satisfies.

    A rule is any object with a ``name``, a ``severity`` and a
    ``check(module_ast, source, path) -> list[Finding]`` method; register it
    with ``@LINT_RULES.register(name)`` and ``repro lint`` picks it up.
    """

    name: str
    severity: str

    def check(self, module_ast: ast.Module, source: str,
              path: str) -> list["Finding"]:
        """Findings for one parsed module."""
        ...


@dataclasses.dataclass
class LintReport:
    """Outcome of one :func:`run_lint` run."""

    findings: list[Finding]
    grandfathered: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        """True when no *new* (non-baselined) findings remain."""
        return not self.findings


# --------------------------------------------------------------------------- #
# Suppression
# --------------------------------------------------------------------------- #
class _Suppressions:
    """Per-file suppression state parsed from ``# repro-lint:`` comments."""

    def __init__(self):
        self.file_rules: set[str] = set()
        self.line_rules: dict[int, set[str]] = {}
        self.problems: list[Finding] = []

    def covers(self, finding: Finding) -> bool:
        active = self.file_rules | self.line_rules.get(finding.line, set())
        return finding.rule in active or "all" in active


def _parse_suppressions(source: str, path: str) -> _Suppressions:
    """Extract suppression directives via the tokenizer (comments only,
    so directive-looking text inside string literals never miscounts)."""
    state = _Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return state  # the parse-error finding already covers this file
    lines = source.splitlines()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment, (line, col) = token.string, token.start
        if not _ANY_DIRECTIVE.search(comment):
            continue
        match = _DIRECTIVE.search(comment)
        if match is None:
            state.problems.append(Finding(
                rule=SUPPRESSION_RULE, path=path, line=line, col=col,
                message="malformed repro-lint directive; expected "
                        "'# repro-lint: disable[-file]=rule[,rule] -- reason'",
                source=lines[line - 1].strip() if line <= len(lines) else "",
            ))
            continue
        rules = {name.strip() for name in match.group("rules").split(",")
                 if name.strip()}
        if not match.group("reason"):
            state.problems.append(Finding(
                rule=SUPPRESSION_RULE, path=path, line=line, col=col,
                message=f"suppression of {', '.join(sorted(rules))} has no "
                        "justification; append ' -- <reason>'",
                source=lines[line - 1].strip() if line <= len(lines) else "",
            ))
            continue
        if match.group("kind") == "disable-file":
            state.file_rules |= rules
            continue
        standalone = not lines[line - 1][:col].strip() if line <= len(lines) else False
        # A trailing comment guards its own line; a standalone comment line
        # guards the line directly below it.
        target = line + 1 if standalone else line
        state.line_rules.setdefault(target, set()).update(rules)
    return state


# --------------------------------------------------------------------------- #
# Linting
# --------------------------------------------------------------------------- #
def resolve_rules(names: Sequence[str] | None = None) -> list[LintRule]:
    """Instantiate the registered rules (all of them, or a named subset)."""
    selected = LINT_RULES.names() if names is None else list(names)
    return [LINT_RULES.build(name) for name in selected]


def _attach_source(findings: Iterable[Finding], source: str) -> None:
    lines = source.splitlines()
    for finding in findings:
        if not finding.source and 1 <= finding.line <= len(lines):
            finding.source = lines[finding.line - 1].strip()


def lint_source(source: str, path: str,
                rules: Sequence[LintRule] | None = None) -> list[Finding]:
    """Lint one in-memory module; ``path`` gives the rules their context.

    Path-scoped rules (allowlists) match on the *suffix* of ``path``, so
    fixtures and tests can lint any source text under a synthetic path like
    ``"src/repro/nn/dtypes.py"``.
    """
    if rules is None:
        rules = resolve_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(rule=PARSE_ERROR_RULE, path=path,
                        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                        message=f"could not parse: {exc.msg}")]
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(tree, source, path))
    _attach_source(findings, source)
    suppressions = _parse_suppressions(source, path)
    findings = [f for f in findings if not suppressions.covers(f)]
    findings.extend(suppressions.problems)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(path, rules: Sequence[LintRule] | None = None,
              root=None) -> list[Finding]:
    """Lint one file; paths in findings are relative to ``root`` when given."""
    file_path = pathlib.Path(path)
    display = file_path
    if root is not None:
        try:
            display = file_path.resolve().relative_to(pathlib.Path(root).resolve())
        except ValueError:
            display = file_path
    return lint_source(file_path.read_text(encoding="utf-8"),
                       display.as_posix(), rules)


def iter_python_files(paths: Sequence) -> list[pathlib.Path]:
    """Every ``*.py`` file under ``paths`` (files kept, directories walked).

    Skips ``__pycache__`` and hidden directories; the result is sorted so
    output and baselines are stable across filesystems.
    """
    files: set[pathlib.Path] = set()
    for entry in paths:
        entry_path = pathlib.Path(entry)
        if entry_path.is_file():
            files.add(entry_path)
            continue
        if not entry_path.is_dir():
            raise FileNotFoundError(f"lint path {entry!r} does not exist")
        for candidate in entry_path.rglob("*.py"):
            parts = candidate.relative_to(entry_path).parts
            if any(part == "__pycache__" or part.startswith(".")
                   for part in parts):
                continue
            files.add(candidate)
    return sorted(files)


def run_lint(paths: Sequence, rules: Sequence[LintRule] | None = None,
             baseline: dict[str, int] | None = None, root=None) -> LintReport:
    """Lint every python file under ``paths`` and apply the baseline.

    Findings whose fingerprint is in ``baseline`` are grandfathered (up to
    the recorded count per fingerprint — a *second* occurrence of a
    grandfathered pattern is still new) and reported separately.
    """
    if rules is None:
        rules = resolve_rules()
    if root is None:
        root = pathlib.Path.cwd()
    all_findings: list[Finding] = []
    files = iter_python_files(paths)
    for file_path in files:
        all_findings.extend(lint_file(file_path, rules, root=root))
    remaining = dict(baseline or {})
    new, grandfathered = [], []
    for finding in all_findings:
        fingerprint = finding.fingerprint()
        if remaining.get(fingerprint, 0) > 0:
            remaining[fingerprint] -= 1
            grandfathered.append(finding)
        else:
            new.append(finding)
    return LintReport(findings=new, grandfathered=grandfathered,
                      files_checked=len(files))


# --------------------------------------------------------------------------- #
# Baseline persistence
# --------------------------------------------------------------------------- #
def load_baseline(path) -> dict[str, int]:
    """Read a baseline file into a ``fingerprint -> allowed count`` map."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "fingerprints" not in payload:
        raise ValueError(
            f"{path} is not a repro-lint baseline (no 'fingerprints' key)"
        )
    fingerprints = payload["fingerprints"]
    return {str(fp): int(entry["count"]) if isinstance(entry, dict)
            else int(entry) for fp, entry in fingerprints.items()}


def write_baseline(path, findings: Sequence[Finding]) -> dict:
    """Persist ``findings`` as the grandfathered baseline; returns the payload.

    Alongside each fingerprint the rule, path and message are recorded so a
    human reading the committed file can tell what debt it grandfathers.
    """
    entries: dict[str, dict] = {}
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        fingerprint = finding.fingerprint()
        entry = entries.setdefault(fingerprint, {
            "count": 0, "rule": finding.rule, "path": finding.path,
            "message": finding.message,
        })
        entry["count"] += 1
    payload = {"version": BASELINE_VERSION, "tool": "repro lint",
               "fingerprints": entries}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return payload


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def _severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity) if severity in SEVERITIES else len(SEVERITIES)


def format_findings(findings: Sequence[Finding]) -> str:
    """Human diagnostics: one ``path:line:col: severity: message [rule]`` line
    per finding, most severe first."""
    ordered = sorted(findings, key=lambda f: (_severity_rank(f.severity),
                                              f.path, f.line, f.col))
    return "\n".join(
        f"{finding.location()}: {finding.severity}: {finding.message} "
        f"[{finding.rule}]"
        for finding in ordered
    )


def report_to_json(report: LintReport) -> dict:
    """The machine-readable form behind ``repro lint --format json``."""
    by_rule: dict[str, int] = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "version": REPORT_VERSION,
        "tool": "repro lint",
        "files_checked": report.files_checked,
        "findings": [finding.as_dict() for finding in report.findings],
        "grandfathered": [finding.as_dict() for finding in report.grandfathered],
        "summary": {
            "new": len(report.findings),
            "grandfathered": len(report.grandfathered),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
