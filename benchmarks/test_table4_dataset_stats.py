"""Table IV — AMS circuit dataset statistics.

The paper reports, for each of the six designs, the number of graph nodes
``N``, edges ``N_E``, sampled links, and the average node/edge counts of the
1-hop enclosing subgraphs.  Absolute sizes here are smaller (the synthetic
designs are scaled down to laptop size), but the qualitative structure holds:
the three training designs are the largest, pin-net links dominate before
balancing, and enclosing subgraphs stay small relative to the host graph.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.graph import default_link_pipeline, link_type_histogram

import pytest

from .conftest import record_result, run_once

pytestmark = pytest.mark.benchmark

PAPER_ROWS = [
    {"design": "SSRAM", "split": "train", "N": 87_000, "N_E": 134_000, "links": 131_000,
     "nodes_per_subgraph": 153, "edges_per_subgraph": 917},
    {"design": "ULTRA8T", "split": "train", "N": 3_500_000, "N_E": 13_400_000, "links": 166_000,
     "nodes_per_subgraph": 257, "edges_per_subgraph": 1_476},
    {"design": "SANDWICH_RAM", "split": "train", "N": 4_300_000, "N_E": 13_300_000,
     "links": 154_000, "nodes_per_subgraph": 472, "edges_per_subgraph": 2_540},
    {"design": "DIGITAL_CLK_GEN", "split": "test", "N": 17_000, "N_E": 36_000, "links": 4_000,
     "nodes_per_subgraph": 417, "edges_per_subgraph": 2_403},
    {"design": "TIMING_CONTROL", "split": "test", "N": 18_000, "N_E": 44_000, "links": 5_000,
     "nodes_per_subgraph": 59, "edges_per_subgraph": 387},
    {"design": "ARRAY_128_32", "split": "test", "N": 144_000, "N_E": 352_000, "links": 110_000,
     "nodes_per_subgraph": 150, "edges_per_subgraph": 803},
]


def test_table4_dataset_statistics(benchmark, config, suite):
    def experiment():
        rows = []
        for name, design in suite.items():
            graph = design.graph
            samples = default_link_pipeline(
                max_links=60, max_nodes_per_hop=config.data.max_nodes_per_hop,
            ).run(graph, rng=0)
            rows.append({
                "design": name,
                "split": design.split,
                "N": graph.num_nodes,
                "N_E": graph.num_edges,
                "links": graph.num_links,
                "links_by_type": link_type_histogram(graph.links),
                "nodes_per_subgraph": float(np.mean([s.num_nodes for s in samples])),
                "edges_per_subgraph": float(np.mean([s.num_edges for s in samples])),
            })
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, columns=["design", "split", "N", "N_E", "links",
                                      "nodes_per_subgraph", "edges_per_subgraph"],
                       title="Table IV (measured) — dataset statistics"))
    print(format_table(PAPER_ROWS, columns=["design", "split", "N", "N_E", "links",
                                            "nodes_per_subgraph", "edges_per_subgraph"],
                       title="Table IV (paper, 28nm full-scale designs)"))
    record_result("table4_dataset_stats", {"measured": rows, "paper": PAPER_ROWS})

    by_name = {row["design"]: row for row in rows}
    # Shape checks: every design produced a non-trivial graph with labelled links.
    for row in rows:
        assert row["N"] > 100
        assert row["N_E"] > 100
        assert row["links"] > 50
        assert row["nodes_per_subgraph"] < row["N"]
    # Training designs are larger than the clock-generator test design, as in the paper.
    assert by_name["SSRAM"]["N"] > by_name["DIGITAL_CLK_GEN"]["N"]
    assert by_name["SANDWICH_RAM"]["N"] > by_name["DIGITAL_CLK_GEN"]["N"]
    # Pin-net couplings dominate before balancing (Section III-B).
    for row in rows:
        hist = row["links_by_type"]
        assert hist["pin-net"] >= hist["net-net"]
