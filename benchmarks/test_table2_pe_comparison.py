"""Table II — comparison of positional encodings on link prediction.

The paper trains on SSRAM and evaluates zero-shot on DIGITAL_CLK_GEN with six
PE variants.  Its findings: DSPD is the most accurate while costing roughly as
little as DRNL; LapPE/RWSE are an order of magnitude slower to compute; using
the circuit statistics ``X_C`` as a PE is *worse* than dedicated PEs
(Observation 1).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.core import Trainer, pretrain_link_model
from repro.core.datasets import build_link_samples
from repro.graph import compute_pe, default_link_pipeline

import pytest

from .conftest import record_result, run_once

pytestmark = pytest.mark.benchmark

PE_KINDS = ["none", "stats", "drnl", "rwse", "lappe", "dspd"]

PAPER_ROWS = [
    {"pe": "none", "accuracy": 0.8867, "f1": 0.9120, "auc": 0.9393, "time_per_graph_s": None},
    {"pe": "stats", "accuracy": 0.9066, "f1": 0.9261, "auc": 0.9629, "time_per_graph_s": None},
    {"pe": "drnl", "accuracy": 0.9505, "f1": 0.9640, "auc": 0.9698, "time_per_graph_s": 0.0170},
    {"pe": "rwse", "accuracy": 0.8931, "f1": 0.9255, "auc": 0.8612, "time_per_graph_s": 0.1296},
    {"pe": "lappe", "accuracy": 0.9561, "f1": 0.9680, "auc": 0.9697, "time_per_graph_s": 0.1934},
    {"pe": "dspd", "accuracy": 0.9618, "f1": 0.9720, "auc": 0.9774, "time_per_graph_s": 0.0173},
]


TIMED_KINDS = ["drnl", "rwse", "lappe", "dspd"]
TIMING_ROUNDS = 7


def _pe_times_per_graph(design, config, num_graphs: int = 40) -> dict[str, float]:
    """Median wall-clock seconds to compute one subgraph's PE, per kind.

    Every kind encodes the same samples one subgraph at a time.  The kinds
    are timed in alternated rounds (the order rotates each round), so a slow
    phase of a shared host is spread over all of them, and each kind's
    figure is the median of its per-round per-graph times.
    """
    samples = default_link_pipeline(
        max_links=num_graphs, max_nodes_per_hop=config.data.max_nodes_per_hop,
    ).run(design.graph, rng=3)
    rounds: dict[str, list[float]] = {kind: [] for kind in TIMED_KINDS}
    for round_index in range(TIMING_ROUNDS):
        shift = round_index % len(TIMED_KINDS)
        for kind in TIMED_KINDS[shift:] + TIMED_KINDS[:shift]:
            start = time.perf_counter()
            for sample in samples:
                compute_pe(sample, kind)
            rounds[kind].append((time.perf_counter() - start) / max(1, len(samples)))
    return {kind: float(np.median(times)) for kind, times in rounds.items()}


def test_table2_pe_comparison(benchmark, config, suite):
    train_design = suite["SSRAM"]
    test_design = suite["DIGITAL_CLK_GEN"]

    def experiment():
        seconds = _pe_times_per_graph(train_design, config)
        rows = []
        for kind in PE_KINDS:
            result = pretrain_link_model([train_design], config, pe_kind=kind)
            test_samples = build_link_samples(test_design, config.data, pe_kind=kind,
                                              rng=config.data.seed + 1)
            metrics = Trainer(result.model, task="link", config=config.train).evaluate(test_samples)
            rows.append({
                "pe": kind,
                "accuracy": metrics["accuracy"],
                "f1": metrics["f1"],
                "auc": metrics["auc"],
                "time_per_graph_s": seconds.get(kind),
            })
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, title="Table II (measured) — PEs, zero-shot on DIGITAL_CLK_GEN",
                       precision=4))
    print(format_table(PAPER_ROWS, title="Table II (paper)", precision=4))
    record_result("table2_pe_comparison", {"measured": rows, "paper": PAPER_ROWS})

    by_pe = {row["pe"]: row for row in rows}
    # Shape check 1: DSPD is among the strongest PEs (within 3 points of the best AUC).
    best_auc = max(row["auc"] for row in rows)
    assert by_pe["dspd"]["auc"] >= best_auc - 0.03
    # Shape check 2: DSPD is not worse than running without any PE.
    assert by_pe["dspd"]["auc"] >= by_pe["none"]["auc"] - 0.02
    # Shape check 3: DSPD costs far less to compute than the spectral/random-walk
    # PEs (medians of alternated per-graph timing rounds).
    assert by_pe["dspd"]["time_per_graph_s"] < by_pe["lappe"]["time_per_graph_s"]
    assert by_pe["dspd"]["time_per_graph_s"] < by_pe["rwse"]["time_per_graph_s"] * 1.5
    # Every configuration trains to a usable zero-shot model.
    assert all(row["auc"] > 0.5 for row in rows)
