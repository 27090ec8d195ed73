"""Node-level ground-capacitance prediction and switching-energy validation.

Covers the last two experiments of the paper at demo scale:

* node regression (Section IV-D): predict the ground parasitic capacitance of
  every net/pin from a 2-hop subgraph around the node, and
* the Fig. 4 validation: recompute each test design's switching energy with
  the predicted capacitances and compare it against the ground truth.

Run with::

    python examples/ground_cap_and_energy.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import design_energy, energy_comparison, print_table
from repro.core import (
    ExperimentConfig,
    Trainer,
    evaluate_task,
    finetune_task,
    load_design_suite,
)
from repro.core.datasets import build_edge_regression_samples
from repro.graph import NODE_NET
from repro.utils import seed_all


def main() -> None:
    seed_all(5)
    config = ExperimentConfig.fast()
    suite = load_design_suite(scale=config.data.scale, seed=config.data.seed)
    train_designs = [d for d in suite.values() if d.split == "train"]
    test_designs = [d for d in suite.values() if d.split == "test"]

    # ------------------------------------------------------------------ #
    # Node regression: ground capacitance per net/pin.
    # ------------------------------------------------------------------ #
    print("Training CircuitGPS for node regression (ground capacitance)...")
    node_model = finetune_task(train_designs, "node_regression", mode="scratch",
                               config=config)
    rows = []
    for design in test_designs:
        metrics = evaluate_task(node_model, design, "node_regression", config=config)
        rows.append({"design": design.name, **{k: metrics[k] for k in ("mae", "rmse", "r2")}})
    print_table(rows, title="Node regression, zero-shot on the test designs")

    # ------------------------------------------------------------------ #
    # Edge regression + energy validation (Fig. 4).
    # ------------------------------------------------------------------ #
    print("\nTraining CircuitGPS for coupling-capacitance regression...")
    edge_model = finetune_task(train_designs, "edge_regression", mode="scratch",
                               config=config)
    trainer = Trainer(edge_model.model, task="edge_regression", config=config.train)

    energy_rows = []
    for design in test_designs:
        samples = build_edge_regression_samples(design, config.data, include_negatives=False,
                                                normalizer=edge_model.normalizer, rng=2)
        predictions = trainer.predict(samples)
        override = {}
        graph = design.graph
        for sample, predicted in zip(samples, predictions):
            source, target = sample.node_ids[0], sample.node_ids[1]
            kind_a = "net" if graph.node_types[source] == NODE_NET else "pin"
            kind_b = "net" if graph.node_types[target] == NODE_NET else "pin"
            key = tuple(sorted(((kind_a, graph.node_names[source]),
                                (kind_b, graph.node_names[target]))))
            override[key] = edge_model.normalizer.denormalize(float(predicted))
        comparison = energy_comparison(design, override)
        energy_rows.append({
            "design": design.name,
            "energy_true_pJ": comparison["energy_true_j"] * 1e12,
            "energy_pred_pJ": comparison["energy_pred_j"] * 1e12,
            "ape": comparison["ape"],
        })
    print()
    print_table(energy_rows, title="Switching energy: ground truth vs. predicted couplings")
    mape = float(np.mean([row["ape"] for row in energy_rows]))
    print(f"\nMean absolute percentage error across test designs: {mape * 100:.1f}% "
          f"(paper reports 14.5%)")
    total = sum(design_energy(d) for d in test_designs)
    print(f"Total ground-truth switching energy of the test designs: {total * 1e12:.3f} pJ")


if __name__ == "__main__":
    main()
