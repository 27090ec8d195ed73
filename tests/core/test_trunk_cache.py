"""The serving engine's trunk cache and model snapshots.

Each :class:`~repro.core.serve.AnnotationEngine` serves private, read-only
snapshots of its two models, and each snapshot caches trunk output rows
keyed by the digest of the subgraph's trunk inputs
(:meth:`~repro.graph.batch.SubgraphBatch.distinct`).  These tests pin:

* the key covers every trunk input, and nothing the heads alone read;
* a warm engine's records equal a fresh engine's, so no check that replays
  requests depends on what the engine saw before;
* the snapshot cannot change under the engine, so no entry goes stale.
"""

import copy
import json

import numpy as np
import pytest

from repro.core import AnnotationEngine, CircuitGPSPipeline, build_model, default_candidate_pairs
from repro.core.serve import TRUNK_CACHE_BYTES, serving_snapshot
from repro.core.server.wire import dumps_canonical
from repro.graph import collate, compute_pe, default_link_pipeline, netlist_to_graph
from repro.netlist import Mosfet, NetlistDelta, ssram
from repro.nn import Adam, no_grad


def make_pipeline(config, seed=0):
    """Untrained transformer models: their outputs still vary per subgraph."""
    link_model = build_model(config, rng=seed)
    reg_model = build_model(config, rng=seed + 1)
    return CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model})


@pytest.fixture(scope="module")
def config(tiny_config):
    # Hub subsampling off: extraction does not depend on the chunking.
    return (tiny_config.with_model(attention="transformer", num_layers=2)
            .with_data(max_nodes_per_hop=None))


@pytest.fixture(scope="module")
def pipeline(config):
    return make_pipeline(config)


def records_json(report) -> str:
    return json.dumps(report.records)


# --------------------------------------------------------------------------- #
# (b) The key: every trunk input, nothing else
# --------------------------------------------------------------------------- #
class TestKeyCompleteness:
    @pytest.fixture(scope="class")
    def base(self, small_design, pipeline):
        samples = default_link_pipeline(max_links=12, max_nodes_per_hop=15).run(
            small_design.graph, rng=0)
        sample = max(samples, key=lambda s: s.num_edges)
        compute_pe(sample, pipeline.pretrain_result.model.pe_kind)
        return sample

    @staticmethod
    def forward(model, subgraph):
        with no_grad():
            return model(collate([subgraph]), task="edge_regression").data

    def mutations(self, base):
        def node_type(s):
            s.node_types[1] = (s.node_types[1] + 1) % 3

        def edge(s):
            source, target = s.edge_index[:, 0]
            s.edge_index[1, 0] = next(n for n in range(s.num_nodes)
                                      if n not in (source, target))

        def edge_type(s):
            s.edge_types[0] = 1 - s.edge_types[0]

        def anchor(s):
            s.anchors = (s.anchors[0], next(n for n in range(s.num_nodes)
                                            if n not in s.anchors))

        def pe_value(s):
            s.pe[0, 0] = np.nextafter(s.pe[0, 0], np.inf)  # one ulp

        def pe_dtype(s):
            s.pe = s.pe.astype(np.float32)

        return [node_type, edge, edge_type, anchor, pe_value, pe_dtype]

    def test_every_trunk_input_is_in_the_key(self, pipeline, base):
        model = serving_snapshot(pipeline.finetune_results[("edge_regression", "all")].model,
                                 np.float64)
        cache = model.trunk_cache
        self.forward(model, base)
        assert (cache.hits, cache.misses) == (0, 1)
        for count, mutate in enumerate(self.mutations(base), start=2):
            changed = copy.deepcopy(base)
            mutate(changed)
            self.forward(model, changed)
            assert (cache.hits, cache.misses) == (0, count), mutate.__name__

    def test_node_stats_hit_the_cache_but_move_the_regression(self, pipeline, base):
        model = serving_snapshot(pipeline.finetune_results[("edge_regression", "all")].model,
                                 np.float64)
        cache = model.trunk_cache
        before = self.forward(model, base)
        changed = copy.deepcopy(base)
        changed.node_stats[changed.anchors[0]] += 1.0
        after = self.forward(model, changed)
        assert (cache.hits, cache.misses) == (1, 1)
        assert not np.array_equal(before, after)
        # The hit returns exactly what a cold model computes.
        cold = serving_snapshot(pipeline.finetune_results[("edge_regression", "all")].model,
                                np.float64)
        assert after.tobytes() == self.forward(cold, changed).tobytes()

    def test_budget_bounds_the_cache(self, pipeline, small_design):
        model = serving_snapshot(pipeline.pretrain_result.model, np.float64)
        samples = default_link_pipeline(max_links=200, max_nodes_per_hop=15).run(
            small_design.graph, rng=1)
        for sample in samples:
            compute_pe(sample, model.pe_kind)
        with no_grad():
            model(collate(samples), task="link")
        assert 0 < model.trunk_cache.size_bytes <= TRUNK_CACHE_BYTES


# --------------------------------------------------------------------------- #
# (c) A warm engine is a fresh engine
# --------------------------------------------------------------------------- #
def resized(circuit, fraction=2):
    """A copy of ``circuit`` with every ``fraction``-th MOSFET widened."""
    copy_ = copy.deepcopy(circuit)
    for device in [d for d in copy_.devices if isinstance(d, Mosfet)][::fraction]:
        device.width *= 3.0
    return copy_


class TestOracleIndependence:
    def test_request_sequence_replays_on_fresh_engines(self, pipeline):
        big = ssram(rows=4, cols=4).flatten()
        small = ssram(rows=4, cols=2).flatten()
        requests = [(big, 0), (small, 1), (resized(big), 0), (big, 2), (small, 1),
                    (resized(small, 3), 4), (big, 0)]
        warm = AnnotationEngine(pipeline, batch_size=8)
        for circuit, seed in requests:
            served = warm.annotate(circuit, max_candidates=24, seed=seed)
            fresh = AnnotationEngine(pipeline, batch_size=8).annotate(
                circuit, max_candidates=24, seed=seed)
            assert records_json(served) == records_json(fresh)
        assert warm.trunk_hit_rate > 0.5  # the replays really were served warm

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_chained_ecos_equal_a_from_scratch_annotate(self, pipeline, precision):
        circuit = ssram(rows=4, cols=4).flatten()
        pairs = default_candidate_pairs(netlist_to_graph(circuit), max_candidates=40,
                                        rng=np.random.default_rng(5))
        anchors = {name for pair in pairs for name in pair}
        targets = sorted(d.name for d in circuit.devices
                         if isinstance(d, Mosfet) and anchors & set(d.nets))
        engine = AnnotationEngine(pipeline, precision=precision)
        report = engine.annotate(circuit, pairs=pairs)
        rng = np.random.default_rng(6)
        for _ in range(6):
            name = targets[int(rng.integers(len(targets)))]
            old = next(d for d in report.circuit.devices if d.name == name)
            new = copy.deepcopy(old)
            new.width = old.width * float(rng.choice((0.5, 2.0)))
            hits = engine.link_model.trunk_cache.hits
            report = engine.reannotate(report, NetlistDelta(add_devices=[new],
                                                            remove_devices=[old.name]))
            assert report.incremental["recomputed"] > 0
            assert engine.link_model.trunk_cache.hits > hits
            scratch = AnnotationEngine(pipeline, precision=precision).annotate(
                report.circuit, pairs=pairs)
            assert dumps_canonical(report.records) == dumps_canonical(scratch.records)


# --------------------------------------------------------------------------- #
# (d) The engine's models are snapshots
# --------------------------------------------------------------------------- #
class TestSnapshot:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_training_the_pipeline_leaves_the_engine_unchanged(
            self, config, small_design, precision):
        pipeline = make_pipeline(config, seed=3)
        circuit = ssram(rows=4, cols=2).flatten()
        engine = AnnotationEngine(pipeline, precision=precision)
        before = records_json(engine.annotate(circuit, max_candidates=16))

        model = pipeline.pretrain_result.model.train()
        samples = default_link_pipeline(max_links=16, max_nodes_per_hop=15).run(
            small_design.graph, rng=0)
        for sample in samples:
            compute_pe(sample, model.pe_kind)
        optimizer = Adam(model.parameters(), lr=0.05)
        (model(collate(samples), task="link") ** 2).sum().backward()
        optimizer.step()

        assert records_json(engine.annotate(circuit, max_candidates=16)) == before
        retrained = AnnotationEngine(pipeline, precision=precision)
        assert records_json(retrained.annotate(circuit, max_candidates=16)) != before

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_engine_parameters_are_read_only(self, pipeline, precision):
        engine = AnnotationEngine(pipeline, precision=precision)
        for model in (engine.link_model, engine.reg_model):
            assert model is not pipeline.pretrain_result.model
            assert not model.training
            assert all(not m.training for m in model.modules())
            for param in model.parameters():
                assert param.dtype == np.dtype(precision)
                assert not param.requires_grad
                with pytest.raises(ValueError):
                    param.data[...] = 0.0
            for _, buffer in model.named_buffers():
                with pytest.raises(ValueError):
                    buffer[...] = 0.0
        # The pipeline's own models stay trainable.
        assert all(p.data.flags.writeable for p in pipeline.pretrain_result.model.parameters())
