"""Table VI — coupling-capacitance (edge) regression comparison.

Five methods are compared on the three unseen test designs: the two baselines,
CircuitGPS trained from scratch on the regression task, and the two fine-tuning
strategies of Section III-E (head-only and all-parameter) applied to the
pre-trained meta-learner.  Paper findings: CircuitGPS reduces MAE by at least
0.067 against the baselines, and all-parameter fine-tuning is the best variant
overall.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import evaluate_regression
from repro.models import DLPLCap, ParaGraph

import pytest

from .conftest import evaluate_baseline, fit_baseline, record_result, run_once

pytestmark = pytest.mark.benchmark

PAPER_ROWS = [
    {"method": "ParaGraph", "design": "DIGITAL_CLK_GEN", "mae": 0.153, "rmse": 0.212, "r2": 0.470},
    {"method": "DLPL-Cap", "design": "DIGITAL_CLK_GEN", "mae": 0.160, "rmse": 0.223, "r2": 0.414},
    {"method": "CircuitGPS", "design": "DIGITAL_CLK_GEN", "mae": 0.083, "rmse": 0.130, "r2": 0.801},
    {"method": "CircuitGPS-head-ft", "design": "DIGITAL_CLK_GEN", "mae": 0.086, "rmse": 0.125, "r2": 0.816},
    {"method": "CircuitGPS-all-ft", "design": "DIGITAL_CLK_GEN", "mae": 0.072, "rmse": 0.120, "r2": 0.833},
    {"method": "ParaGraph", "design": "TIMING_CONTROL", "mae": 0.154, "rmse": 0.214, "r2": 0.590},
    {"method": "DLPL-Cap", "design": "TIMING_CONTROL", "mae": 0.157, "rmse": 0.217, "r2": 0.579},
    {"method": "CircuitGPS", "design": "TIMING_CONTROL", "mae": 0.043, "rmse": 0.097, "r2": 0.915},
    {"method": "CircuitGPS-head-ft", "design": "TIMING_CONTROL", "mae": 0.085, "rmse": 0.131, "r2": 0.847},
    {"method": "CircuitGPS-all-ft", "design": "TIMING_CONTROL", "mae": 0.042, "rmse": 0.093, "r2": 0.923},
    {"method": "ParaGraph", "design": "ARRAY_128_32", "mae": 0.181, "rmse": 0.260, "r2": 0.211},
    {"method": "DLPL-Cap", "design": "ARRAY_128_32", "mae": 0.176, "rmse": 0.239, "r2": 0.331},
    {"method": "CircuitGPS", "design": "ARRAY_128_32", "mae": 0.048, "rmse": 0.120, "r2": 0.831},
    {"method": "CircuitGPS-head-ft", "design": "ARRAY_128_32", "mae": 0.075, "rmse": 0.120, "r2": 0.831},
    {"method": "CircuitGPS-all-ft", "design": "ARRAY_128_32", "mae": 0.040, "rmse": 0.074, "r2": 0.936},
]

BASELINE_EPOCHS = 40


def test_table6_edge_regression_comparison(benchmark, config, train_designs, test_designs,
                                           finetuned_variants):
    def experiment():
        rows = []
        baselines = {
            "ParaGraph": ParaGraph(dim=config.model.dim, num_layers=3,
                                   stats_dim=config.model.stats_dim, rng=3),
            "DLPL-Cap": DLPLCap(dim=config.model.dim, num_layers=3,
                                stats_dim=config.model.stats_dim, rng=4),
        }
        rngs = {name: fit_baseline(model, "edge_regression", train_designs, config,
                                   BASELINE_EPOCHS)
                for name, model in baselines.items()}

        for design in test_designs:
            for name, model in baselines.items():
                metrics = evaluate_baseline(model, "edge_regression", design, config, rngs[name])
                rows.append({"method": name, "design": design.name, **metrics})
            for name, result in finetuned_variants.items():
                metrics = evaluate_regression(result, design, config=config)
                rows.append({"method": name, "design": design.name, "mae": metrics["mae"],
                             "rmse": metrics["rmse"], "r2": metrics["r2"]})
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, columns=["method", "design", "mae", "rmse", "r2"],
                       title="Table VI (measured) — edge regression (coupling capacitance)"))
    print(format_table(PAPER_ROWS, columns=["method", "design", "mae", "rmse", "r2"],
                       title="Table VI (paper)"))
    record_result("table6_edge_regression", {"measured": rows, "paper": PAPER_ROWS})

    circuitgps_methods = ("CircuitGPS", "CircuitGPS-head-ft", "CircuitGPS-all-ft")
    for design in {row["design"] for row in rows}:
        design_rows = {row["method"]: row for row in rows if row["design"] == design}
        best_gps_mae = min(design_rows[m]["mae"] for m in circuitgps_methods)
        # Shape check: the best CircuitGPS variant beats both whole-graph baselines.
        for baseline_name in ("ParaGraph", "DLPL-Cap"):
            assert best_gps_mae < design_rows[baseline_name]["mae"], (design, baseline_name)
    # Fine-tuning from the meta-learner is at least as good as head-only tuning on average.
    mean = lambda method: sum(r["mae"] for r in rows if r["method"] == method) / 3.0
    assert mean("CircuitGPS-all-ft") <= mean("CircuitGPS-head-ft") + 0.02
