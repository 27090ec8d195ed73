"""Framework tests of the ``repro lint`` engine (suppression, baseline,
walker, output, CLI) plus the meta-test that the committed tree is clean."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.lint import (
    LINT_RULES,
    Finding,
    format_findings,
    iter_python_files,
    lint_source,
    load_baseline,
    report_to_json,
    resolve_rules,
    run_lint,
    write_baseline,
)
from repro.api import list_components
from repro.core.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

DIRTY = "import numpy as np\nx = np.random.rand(4)\n"


def rules_of(source: str, path: str = "src/repro/core/x.py") -> list[str]:
    return [f.rule for f in lint_source(source, path)]


# --------------------------------------------------------------------------- #
# Suppression grammar
# --------------------------------------------------------------------------- #
def test_same_line_suppression():
    source = (
        "import numpy as np\n"
        "x = np.random.rand(4)  "
        "# repro-lint: disable=no-global-rng -- fixture noise\n"
    )
    assert rules_of(source) == []


def test_standalone_line_above_suppression():
    source = (
        "import numpy as np\n"
        "# repro-lint: disable=no-global-rng -- fixture noise\n"
        "x = np.random.rand(4)\n"
    )
    assert rules_of(source) == []


def test_standalone_suppression_does_not_leak_past_its_line():
    source = (
        "import numpy as np\n"
        "# repro-lint: disable=no-global-rng -- fixture noise\n"
        "x = np.random.rand(4)\n"
        "y = np.random.rand(4)\n"
    )
    assert rules_of(source) == ["no-global-rng"]


def test_file_wide_suppression():
    source = (
        "# repro-lint: disable-file=no-global-rng -- legacy shim module\n"
        "import numpy as np\n"
        "x = np.random.rand(4)\n"
        "y = np.random.rand(4)\n"
    )
    assert rules_of(source) == []


def test_disable_all_suppression():
    source = (
        "import numpy as np\n"
        "x = np.random.rand(4)  # repro-lint: disable=all -- generated file\n"
    )
    assert rules_of(source) == []


def test_unjustified_suppression_is_itself_a_finding():
    source = (
        "import numpy as np\n"
        "x = np.random.rand(4)  # repro-lint: disable=no-global-rng\n"
    )
    # The unjustified directive does not take effect (the original finding
    # survives) and is additionally reported itself.
    assert sorted(rules_of(source)) == ["lint-suppression", "no-global-rng"]


def test_malformed_directive_is_reported():
    source = "# repro-lint: silence everything please\nx = 1\n"
    assert rules_of(source) == ["lint-suppression"]


def test_directive_inside_string_literal_is_ignored():
    source = 's = "# repro-lint: disable=no-global-rng"\n'
    assert rules_of(source) == []


# --------------------------------------------------------------------------- #
# Baseline round-trip
# --------------------------------------------------------------------------- #
def test_baseline_round_trip(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY)
    report = run_lint([target], root=tmp_path)
    assert len(report.findings) == 1 and not report.ok

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, report.findings)
    baseline = load_baseline(baseline_file)

    again = run_lint([target], baseline=baseline, root=tmp_path)
    assert again.ok
    assert [f.rule for f in again.grandfathered] == ["no-global-rng"]


def test_baseline_is_count_aware(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY)
    baseline = load_baseline_of(target, tmp_path)
    # A *second* occurrence of a grandfathered pattern is still new.
    target.write_text(DIRTY + "y = np.random.rand(4)\n")
    report = run_lint([target], baseline=baseline, root=tmp_path)
    assert len(report.grandfathered) == 1
    assert len(report.findings) == 1


def load_baseline_of(target, root):
    report = run_lint([target], root=root)
    baseline_file = root / "baseline.json"
    write_baseline(baseline_file, report.findings)
    return load_baseline(baseline_file)


def test_fingerprint_survives_line_drift(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY)
    baseline = load_baseline_of(target, tmp_path)
    # Unrelated edits shift the finding down the file; it stays grandfathered.
    target.write_text("import numpy as np\n\n\nZ = 1\nx = np.random.rand(4)\n")
    report = run_lint([target], baseline=baseline, root=tmp_path)
    assert report.ok
    assert len(report.grandfathered) == 1


def test_load_baseline_rejects_foreign_json(tmp_path):
    bogus = tmp_path / "baseline.json"
    bogus.write_text(json.dumps({"not": "a baseline"}))
    with pytest.raises(ValueError, match="fingerprints"):
        load_baseline(bogus)


# --------------------------------------------------------------------------- #
# Walker, parse errors, output
# --------------------------------------------------------------------------- #
def test_walker_skips_pycache_and_hidden(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "secret.py").write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [f.name for f in files] == ["ok.py"]


def test_walker_raises_on_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([tmp_path / "nope"])


def test_syntax_error_becomes_parse_error_finding():
    findings = lint_source("def broken(:\n", "src/repro/core/x.py")
    assert [f.rule for f in findings] == ["parse-error"]


def test_format_findings_orders_by_severity():
    findings = [
        Finding(rule="registry-docstring", path="b.py", line=1,
                message="warn", severity="warning"),
        Finding(rule="no-global-rng", path="a.py", line=2, message="err"),
    ]
    lines = format_findings(findings).splitlines()
    assert lines[0] == "a.py:2:1: error: err [no-global-rng]"
    assert lines[1] == "b.py:1:1: warning: warn [registry-docstring]"


def test_report_json_shape(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY)
    payload = report_to_json(run_lint([target], root=tmp_path))
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["summary"]["new"] == 1
    assert payload["summary"]["by_rule"] == {"no-global-rng": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "no-global-rng"
    assert finding["fingerprint"]
    assert finding["source"] == "x = np.random.rand(4)"


def test_rule_subset_selection():
    rules = resolve_rules(["no-naked-dtype"])
    assert [rule.name for rule in rules] == ["no-naked-dtype"]
    source = "import numpy as np\nx = np.random.rand(4)\n"
    assert lint_source(source, "src/repro/core/x.py", rules) == []


# --------------------------------------------------------------------------- #
# Registry integration and CLI
# --------------------------------------------------------------------------- #
def test_lint_rules_registry_is_listed():
    families = list_components()
    assert set(families["lint_rules"]) == set(LINT_RULES.names())
    assert len(families["lint_rules"]) == 7


def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "mod.py"
    dirty.write_text(DIRTY)
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")

    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty)]) == 1
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert main(["lint", str(dirty), "--update-baseline"]) == 2
    capsys.readouterr()

    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(dirty), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert main(["lint", str(dirty), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "grandfathered" in out


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "mod.py"
    dirty.write_text(DIRTY)
    assert main(["lint", str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_rule"] == {"no-global-rng": 1}


# --------------------------------------------------------------------------- #
# Meta-test: the committed tree is clean
# --------------------------------------------------------------------------- #
def test_committed_tree_is_lint_clean():
    report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.files_checked > 50
    assert report.findings == [], format_findings(report.findings)


def test_committed_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    assert baseline == {}
