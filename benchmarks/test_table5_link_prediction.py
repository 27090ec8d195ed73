"""Table V — accuracy comparison on zero-shot link prediction.

CircuitGPS (pre-trained on the three training designs) is compared against the
ParaGraph and DLPL-Cap baselines on the three unseen test designs.  The
paper's headline: CircuitGPS improves accuracy by at least 20% over both
baselines on every test design.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import evaluate_zero_shot_link
from repro.models import DLPLCap, ParaGraph

import pytest

from .conftest import evaluate_baseline, fit_baseline, record_result, run_once

pytestmark = pytest.mark.benchmark

PAPER_ROWS = [
    {"method": "ParaGraph", "design": "DIGITAL_CLK_GEN", "accuracy": 0.768, "f1": 0.847, "auc": 0.870},
    {"method": "DLPL-Cap", "design": "DIGITAL_CLK_GEN", "accuracy": 0.761, "f1": 0.841, "auc": 0.864},
    {"method": "CircuitGPS", "design": "DIGITAL_CLK_GEN", "accuracy": 0.972, "f1": 0.979, "auc": 0.992},
    {"method": "ParaGraph", "design": "TIMING_CONTROL", "accuracy": 0.754, "f1": 0.841, "auc": 0.865},
    {"method": "DLPL-Cap", "design": "TIMING_CONTROL", "accuracy": 0.750, "f1": 0.839, "auc": 0.865},
    {"method": "CircuitGPS", "design": "TIMING_CONTROL", "accuracy": 0.989, "f1": 0.992, "auc": 0.998},
    {"method": "ParaGraph", "design": "ARRAY_128_32", "accuracy": 0.720, "f1": 0.776, "auc": 0.823},
    {"method": "DLPL-Cap", "design": "ARRAY_128_32", "accuracy": 0.756, "f1": 0.832, "auc": 0.825},
    {"method": "CircuitGPS", "design": "ARRAY_128_32", "accuracy": 0.980, "f1": 0.985, "auc": 0.999},
]

BASELINE_EPOCHS = 40


def test_table5_link_prediction_comparison(benchmark, config, suite, train_designs,
                                           test_designs, pretrained):
    def experiment():
        rows = []
        baselines = {
            "ParaGraph": ParaGraph(dim=config.model.dim, num_layers=3,
                                   stats_dim=config.model.stats_dim, rng=1),
            "DLPL-Cap": DLPLCap(dim=config.model.dim, num_layers=3,
                                stats_dim=config.model.stats_dim, rng=2),
        }
        rngs = {name: fit_baseline(model, "link", train_designs, config,
                                   BASELINE_EPOCHS)
                for name, model in baselines.items()}

        for design in test_designs:
            for name, model in baselines.items():
                metrics = evaluate_baseline(model, "link", design, config, rngs[name])
                rows.append({"method": name, "design": design.name, **metrics})
            metrics = evaluate_zero_shot_link(pretrained, design, config)
            rows.append({"method": "CircuitGPS", "design": design.name,
                         "accuracy": metrics["accuracy"], "f1": metrics["f1"],
                         "auc": metrics["auc"]})
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, columns=["method", "design", "accuracy", "f1", "auc"],
                       title="Table V (measured) — zero-shot link prediction"))
    print(format_table(PAPER_ROWS, columns=["method", "design", "accuracy", "f1", "auc"],
                       title="Table V (paper)"))
    record_result("table5_link_prediction", {"measured": rows, "paper": PAPER_ROWS})

    # Shape check: CircuitGPS beats both baselines on every test design, on
    # accuracy and AUC (the paper reports a >= 20% accuracy gap; we require a
    # clear win without pinning the exact margin).
    for design in {row["design"] for row in rows}:
        circuitgps = next(r for r in rows if r["design"] == design and r["method"] == "CircuitGPS")
        for baseline_name in ("ParaGraph", "DLPL-Cap"):
            baseline = next(r for r in rows if r["design"] == design
                            and r["method"] == baseline_name)
            assert circuitgps["accuracy"] > baseline["accuracy"], (design, baseline_name)
            assert circuitgps["auc"] > baseline["auc"], (design, baseline_name)
    # CircuitGPS transfers well in absolute terms.
    assert all(r["auc"] > 0.75 for r in rows if r["method"] == "CircuitGPS")
