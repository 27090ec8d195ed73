"""Determinism and correctness tests for the parallel execution layer.

The contract of ``repro.core.parallel`` is that worker processes are purely a
wall-clock optimisation: for a fixed seed, ``workers in {0, 2, 4}`` must
produce byte-identical annotation records and JSON.  These tests pin that
contract, plus the pool mechanics (ordering, error propagation, serial
fallbacks).
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.core import (
    CircuitGPSPipeline,
    ExperimentConfig,
    build_model,
    fork_available,
    parallel_map,
    resolve_workers,
)
from repro.core.data import PECache
from repro.core.parallel import default_worker_count, parallel_imap
from repro.core.serve import AnnotationEngine, default_candidate_pairs
from repro.graph import extract_enclosing_subgraphs, netlist_to_graph
from repro.netlist import ssram
from repro.utils import seed_all

WORKER_COUNTS = (0, 2, 4)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _pid_of(_):
    return os.getpid()


class TestParallelMap:
    def test_matches_serial_in_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=3) == [x * x for x in items]

    def test_serial_fallbacks(self):
        assert parallel_map(_square, [5], workers=4) == [25]
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [2, 3], workers=0) == [4, 9]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2, 3], workers=2)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_work_actually_leaves_the_parent(self):
        pids = set(parallel_map(_pid_of, list(range(8)), workers=2))
        assert os.getpid() not in pids

    def test_unpicklable_callable_is_fine(self):
        # Closures never cross the process boundary (fork inheritance).
        offset = 10
        results = parallel_map(lambda x: x + offset, [1, 2, 3, 4], workers=2)
        assert results == [11, 12, 13, 14]

    def test_resolve_workers_policy(self):
        assert resolve_workers(None, 10) == 0
        assert resolve_workers(0, 10) == 0
        assert resolve_workers(-2, 10) == 0
        assert resolve_workers(4, 1) == 0
        assert resolve_workers(8, 3) in (0, 3)  # 0 only if fork is unavailable
        assert default_worker_count() >= 1

    def test_nested_calls_degrade_to_serial(self):
        # A worker asking for its own pool must not fork pools-inside-pools.
        results = parallel_map(_nested_level, [1, 2], workers=2)
        assert results == [[2, 4], [4, 8]]

    def test_imap_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            list(parallel_imap(_boom, [1, 2, 3], workers=2))

    def test_imap_streams_in_order(self):
        stream = parallel_imap(_square, range(9), workers=2)
        assert next(iter(stream)) == 0  # first result before full consumption
        assert list(stream) == [x * x for x in range(1, 9)]
        assert list(parallel_imap(_square, [3, 4], workers=0)) == [9, 16]


def _nested_level(x):
    return parallel_map(_square_times(x), [2, 4], workers=2)


def _square_times(x):
    return lambda y: x * y


class TestPicklability:
    def test_csr_pickle_drops_then_rebuilds_adjacency(self):
        graph = netlist_to_graph(ssram(rows=4, cols=4).flatten())
        csr = graph.csr
        clone = pickle.loads(pickle.dumps(csr))
        np.testing.assert_array_equal(clone.indptr, csr.indptr)
        np.testing.assert_array_equal(clone.indices, csr.indices)
        np.testing.assert_array_equal(clone.edge_ids, csr.edge_ids)
        assert pickle.loads(pickle.dumps(graph))._csr is None  # cache not shipped


# --------------------------------------------------------------------------- #
# End-to-end determinism: training metrics and annotation JSON
# --------------------------------------------------------------------------- #
def _serving_pipeline(max_nodes_per_hop: int = 20):
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=4, dropout=0.0, attention="none")
        .with_data(max_links_per_design=40, scale=0.3, max_nodes_per_hop=max_nodes_per_hop)
    )
    link_model = build_model(config)
    reg_model = build_model(config)
    return CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model}
    )


def _annotation_payload(num_workers: int) -> bytes:
    pipeline = _serving_pipeline()
    engine = AnnotationEngine(pipeline, batch_size=32, cache=PECache(),
                              workers=num_workers)
    circuit = ssram(rows=4, cols=4).flatten()
    circuit.name = "PAR_JSON"
    graphs = [netlist_to_graph(circuit) for _ in range(3)]
    annotations = engine.annotate_many(graphs, max_candidates=16, seed=5,
                                       max_workers=num_workers)
    payload = [a.as_dict() for a in annotations]
    for report in payload:
        report["elapsed_seconds"] = 0.0  # wall-clock is the one legitimate difference
    return json.dumps(payload, sort_keys=True).encode()


def test_annotation_json_identical_across_worker_counts():
    baseline = _annotation_payload(0)
    for workers in WORKER_COUNTS[1:]:
        assert _annotation_payload(workers) == baseline, (
            f"annotation JSON changed with max_workers={workers}"
        )


@pytest.mark.skipif(not fork_available(), reason="needs fork")
@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_chunk_pool_records_identical_to_serial(workers):
    """``score_pairs`` extracts one netlist's chunks in the fork pool; with
    hub subsampling on, each chunk's RNG must not depend on where it runs."""
    pipeline = _serving_pipeline(max_nodes_per_hop=4)
    graph = netlist_to_graph(ssram(rows=4, cols=4).flatten())
    pairs = default_candidate_pairs(graph, max_candidates=40,
                                    rng=np.random.default_rng(0))
    links = AnnotationEngine.links_for_pairs(graph, pairs)
    capped = extract_enclosing_subgraphs(graph, links, max_nodes_per_hop=4,
                                         rng=np.random.default_rng(0))
    full = extract_enclosing_subgraphs(graph, links)
    assert np.any(np.diff(capped.node_offsets) < np.diff(full.node_offsets)), \
        "the hub cap never triggered; the chunk RNG went untested"

    def records(workers: int):
        engine = AnnotationEngine(pipeline, batch_size=8, cache=PECache(),
                                  workers=workers)
        assert len(engine.request_chunks(len(pairs))) >= 3
        result = json.dumps(engine.score_pairs(graph, pairs, seed=3), sort_keys=True)
        return result.encode(), engine.cache.hits + engine.cache.misses

    serial, serial_lookups = records(0)
    forked, forked_lookups = records(workers)
    assert forked == serial
    # Every chunk was extracted (and its PE looked up) in a pool worker, so
    # the parent's cache saw no lookup; the serial run saw them all.
    assert serial_lookups > 0 and forked_lookups == 0
