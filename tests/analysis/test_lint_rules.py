"""Fixture-driven tests of the built-in ``repro lint`` rules.

Each rule has a ``<rule>_bad.py`` / ``<rule>_good.py`` pair under
``lint_fixtures/`` reproducing the historical bug pattern the rule guards
against (and the sanctioned idiom that must stay clean).  Fixtures are
linted as *text* under a synthetic path, so path-scoped rules fire without
the fixtures living inside ``src/``.  Findings are filtered to the rule
under test — a fixture demonstrating one contract violation is allowed to
be imperfect under another rule.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.lint import LINT_RULES, lint_source

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

#: rule name -> (synthetic lint path, expected finding count in the bad twin)
CASES = {
    "no-global-rng": ("src/repro/core/sampler_helpers.py", 2),
    "no-naked-dtype": ("src/repro/core/data_helpers.py", 2),
    "fork-safety": ("src/repro/core/data_helpers.py", 2),
    "no-silent-except": ("src/repro/core/serve_helpers.py", 2),
    "registry-docstring": ("src/repro/models/heads_plugin.py", 3),
    "stage-contract": ("src/repro/graph/datapipe_plugin.py", 2),
    "state-dict-pairing": ("src/repro/nn/optim_plugin.py", 1),
}


def findings_for(rule: str, stem: str, path: str):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    return [f for f in lint_source(source, path) if f.rule == rule]


def test_every_builtin_rule_has_a_fixture_pair():
    assert set(CASES) == set(LINT_RULES.names())
    for rule in CASES:
        stem = rule.replace("-", "_")
        assert (FIXTURES / f"{stem}_bad.py").is_file()
        assert (FIXTURES / f"{stem}_good.py").is_file()


@pytest.mark.parametrize("rule", sorted(CASES))
def test_bad_fixture_fires(rule):
    path, expected = CASES[rule]
    found = findings_for(rule, rule.replace("-", "_") + "_bad", path)
    assert len(found) == expected, [f.message for f in found]
    for finding in found:
        assert finding.rule == rule
        assert finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule", sorted(CASES))
def test_good_fixture_is_clean(rule):
    path, _ = CASES[rule]
    found = findings_for(rule, rule.replace("-", "_") + "_good", path)
    assert found == [], [f.message for f in found]


# --------------------------------------------------------------------------- #
# The acceptance-pinned historical idioms
# --------------------------------------------------------------------------- #
def test_pre_pr8_additive_seed_idiom_fires():
    source = (
        "import numpy as np\n"
        "def streams(seed, n):\n"
        "    return [np.random.default_rng(seed + i) for i in range(n)]\n"
    )
    found = [f for f in lint_source(source, "src/repro/core/x.py")
             if f.rule == "no-global-rng"]
    assert len(found) == 1
    assert "spawn_seeds" in found[0].message


def test_closure_into_parallel_map_fires():
    source = (
        "from repro.core.parallel import parallel_map\n"
        "def run(items, k):\n"
        "    def scale(item):\n"
        "        return item * k\n"
        "    return parallel_map(scale, items)\n"
    )
    found = [f for f in lint_source(source, "src/repro/core/x.py")
             if f.rule == "fork-safety"]
    assert len(found) == 1
    assert "scale" in found[0].message


def test_rng_accessor_home_is_exempt():
    source = "import numpy as np\n_GLOBAL = np.random.default_rng(0)\n"
    assert lint_source(source, "src/repro/utils/rng.py") == []
    assert [f.rule for f in lint_source(source, "src/repro/core/x.py")] == [
        "no-global-rng"
    ]
