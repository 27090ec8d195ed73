"""Determinism and correctness tests for the parallel execution layer.

The contract of ``repro.core.parallel`` is that worker processes are purely a
wall-clock optimisation: for a fixed seed, ``num_workers in {0, 2, 4}`` must
produce byte-identical samples, byte-identical training metrics/weights and
byte-identical annotation JSON.  These tests pin that contract, plus the
pool mechanics (ordering, error propagation, serial fallbacks) and the
picklability that makes datasets shippable to workers at all.
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
from repro.core.data import DataLoader, PECache, SubgraphDataset
from repro.core.parallel import default_worker_count, map_dataset_chunks, parallel_imap
from repro.core.serve import AnnotationEngine, default_candidate_pairs
from repro.core.trainer import Trainer
from repro.graph import netlist_to_graph
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

    def test_imap_streams_in_order(self):
        stream = parallel_imap(_square, range(9), workers=2)
        assert next(iter(stream)) == 0  # first result before full consumption
        assert list(stream) == [x * x for x in range(1, 9)]
        assert list(parallel_imap(_square, [3, 4], workers=0)) == [9, 16]


def _nested_level(x):
    return parallel_map(_square_times(x), [2, 4], workers=2)


def _square_times(x):
    return lambda y: x * y


# --------------------------------------------------------------------------- #
# Dataset / loader determinism
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def lazy_workload():
    """A lazy link dataset over a small real design graph."""
    circuit = ssram(rows=4, cols=4).flatten()
    circuit.name = "PAR_TEST"
    graph = netlist_to_graph(circuit)
    pairs = default_candidate_pairs(graph, max_candidates=48,
                                    rng=np.random.default_rng(0))
    links = AnnotationEngine.links_for_pairs(graph, pairs)
    return graph, links


def _batch_bytes(batch) -> tuple:
    return (batch.node_types.tobytes(), batch.edge_index.tobytes(),
            batch.edge_types.tobytes(), batch.batch.tobytes(),
            batch.anchors.tobytes(), batch.pe.tobytes(),
            batch.node_stats.tobytes(), batch.labels.tobytes(),
            batch.targets.tobytes(), batch.link_types.tobytes())


def _epoch_bytes(graph, links, num_workers: int, *, shuffle=True, epochs=1) -> list:
    dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd",
                                         seed=3, cache=PECache())
    loader = DataLoader(dataset, batch_size=8, shuffle=shuffle,
                        rng=np.random.default_rng(11), num_workers=num_workers)
    return [_batch_bytes(b) for _ in range(epochs) for b in loader]


class TestLoaderDeterminism:
    def test_same_seed_same_batches_any_worker_count(self, lazy_workload):
        graph, links = lazy_workload
        baseline = _epoch_bytes(graph, links, 0)
        for workers in WORKER_COUNTS[1:]:
            assert _epoch_bytes(graph, links, workers) == baseline, (
                f"num_workers={workers} produced different batches than serial"
            )

    def test_multi_epoch_streams_identical(self, lazy_workload):
        graph, links = lazy_workload
        assert _epoch_bytes(graph, links, 2, epochs=2) == _epoch_bytes(graph, links, 0, epochs=2)

    def test_unshuffled_loader_identical(self, lazy_workload):
        graph, links = lazy_workload
        assert _epoch_bytes(graph, links, 2, shuffle=False) == \
            _epoch_bytes(graph, links, 0, shuffle=False)

    def test_memoizing_dataset_multi_epoch_parity_with_subsampling(self, lazy_workload):
        """Workers must not defeat memoization: epoch 2 reuses epoch-1 samples.

        With hub subsampling active, re-extraction draws fresh RNG — so if
        the parallel path failed to write worker samples back into the memo,
        epoch 2 would diverge from the serial run.
        """
        graph, links = lazy_workload

        def run(num_workers: int) -> list:
            dataset = SubgraphDataset.from_links(
                graph, links, hops=1, pe_kind="dspd", seed=3, cache=PECache(),
                max_nodes_per_hop=4, memoize=True,
            )
            loader = DataLoader(dataset, batch_size=8, shuffle=True,
                                rng=np.random.default_rng(2), num_workers=num_workers)
            return [_batch_bytes(b) for _ in range(2) for b in loader]

        assert run(2) == run(0)

    def test_materialized_dataset_ignores_workers(self, lazy_workload):
        graph, links = lazy_workload
        dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd",
                                             seed=3).materialize()
        loader = DataLoader(dataset, batch_size=8, shuffle=False, num_workers=4)
        assert loader._parallel_workers(len(loader)) == 0
        assert sum(b.num_graphs for b in loader) == len(links)

    def test_map_dataset_chunks_matches_getitem(self, lazy_workload):
        graph, links = lazy_workload
        dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd",
                                             seed=3, cache=PECache())
        chunks = [[0, 1, 2], [3, 4], [5]]
        chunked = map_dataset_chunks(dataset, chunks, workers=2)
        reference = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd",
                                               seed=3, cache=PECache())
        for chunk, samples in zip(chunks, chunked):
            for sample, expected in zip(samples, reference.take(chunk)):
                np.testing.assert_array_equal(sample.node_ids, expected.node_ids)
                np.testing.assert_array_equal(sample.edge_index, expected.edge_index)
                np.testing.assert_array_equal(sample.pe, expected.pe)


class TestPicklability:
    def test_lazy_dataset_roundtrips(self, lazy_workload):
        graph, links = lazy_workload
        dataset = SubgraphDataset.from_links(graph, links, hops=1, pe_kind="dspd", seed=7)
        clone = pickle.loads(pickle.dumps(dataset))
        assert len(clone) == len(dataset)
        for index in (0, 5, len(dataset) - 1):
            a, b = dataset[index], clone[index]
            np.testing.assert_array_equal(a.node_ids, b.node_ids)
            np.testing.assert_array_equal(a.edge_index, b.edge_index)
            np.testing.assert_array_equal(a.pe, b.pe)

    def test_subset_view_roundtrips(self, lazy_workload):
        graph, links = lazy_workload
        view = SubgraphDataset.from_links(graph, links, hops=1, seed=7).subset([4, 2, 9])
        clone = pickle.loads(pickle.dumps(view))
        np.testing.assert_array_equal(clone[1].node_ids, view[1].node_ids)

    def test_csr_pickle_drops_then_rebuilds_adjacency(self, lazy_workload):
        graph, _links = lazy_workload
        csr = graph.csr
        clone = pickle.loads(pickle.dumps(csr))
        np.testing.assert_array_equal(clone.indptr, csr.indptr)
        np.testing.assert_array_equal(clone.indices, csr.indices)
        np.testing.assert_array_equal(clone.edge_ids, csr.edge_ids)
        assert pickle.loads(pickle.dumps(graph))._csr is None  # cache not shipped


# --------------------------------------------------------------------------- #
# End-to-end determinism: training metrics and annotation JSON
# --------------------------------------------------------------------------- #
def _serving_pipeline():
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=4, dropout=0.0, attention="none")
        .with_data(max_links_per_design=40, scale=0.3)
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


def _train_fingerprint(num_workers: int, lazy_workload) -> tuple:
    graph, links = lazy_workload
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=4, dropout=0.0, attention="none")
        .with_train(epochs=2, batch_size=16, num_workers=num_workers)
    )
    dataset = SubgraphDataset.from_links(graph, links, hops=1,
                                         pe_kind=config.model.pe_kind, seed=1,
                                         cache=PECache())
    model = build_model(config, rng=np.random.default_rng(0))
    trainer = Trainer(model, task="link", config=config.train, rng=np.random.default_rng(1))
    history = trainer.fit(dataset)
    weights = tuple(value.tobytes() for _key, value in sorted(model.state_dict().items()))
    losses = tuple(row["loss"] for row in history.history)
    metrics = trainer.evaluate(dataset)
    return losses, metrics, weights


def test_training_metrics_and_weights_identical_across_worker_counts(lazy_workload):
    baseline = _train_fingerprint(0, lazy_workload)
    for workers in WORKER_COUNTS[1:]:
        candidate = _train_fingerprint(workers, lazy_workload)
        assert candidate[0] == baseline[0], f"losses drifted at num_workers={workers}"
        assert candidate[1] == baseline[1], f"metrics drifted at num_workers={workers}"
        assert candidate[2] == baseline[2], f"weights drifted at num_workers={workers}"
