"""Tests for the batched annotation engine (repro.core.serve)."""

import copy
import json

import numpy as np
import pytest

from repro.core import (
    AnnotationEngine,
    CircuitGPSPipeline,
    NetlistAnnotation,
    PECache,
    build_model,
    default_candidate_pairs,
)
from repro.graph import netlist_to_graph
from repro.netlist import Mosfet, parse_spice_file, ssram, write_spice


@pytest.fixture(scope="module")
def serving_pipeline(tiny_config):
    """An untrained pipeline with link + regression models (weights irrelevant)."""
    link_model = build_model(tiny_config)
    reg_model = build_model(tiny_config)
    return CircuitGPSPipeline.from_models(
        tiny_config, link_model, heads={("edge_regression", "all"): reg_model}
    )


@pytest.fixture(scope="module")
def user_circuit():
    circuit = ssram(rows=4, cols=4)
    circuit.name = "SERVE_TEST"
    return circuit


class TestEngineConstruction:
    def test_requires_pretrained_model(self, tiny_config):
        with pytest.raises(RuntimeError, match="pre-trained"):
            AnnotationEngine(CircuitGPSPipeline(tiny_config))

    def test_requires_matching_head(self, tiny_config):
        pipeline = CircuitGPSPipeline.from_models(tiny_config, build_model(tiny_config))
        with pytest.raises(RuntimeError, match="fine-tuned head"):
            AnnotationEngine(pipeline)

    def test_rejects_bad_batch_size(self, serving_pipeline):
        with pytest.raises(ValueError):
            AnnotationEngine(serving_pipeline, batch_size=0)


class TestCandidateGeneration:
    def test_skips_power_and_ground_nets(self, user_circuit):
        graph = netlist_to_graph(user_circuit.flatten())
        pairs = default_candidate_pairs(graph, max_candidates=50,
                                        rng=np.random.default_rng(0))
        flat_names = {name.lower() for pair in pairs for name in pair}
        assert not flat_names & {"vdd", "vss", "gnd", "0"}

    def test_respects_cap_and_determinism(self, user_circuit):
        graph = netlist_to_graph(user_circuit.flatten())
        pairs_a = default_candidate_pairs(graph, max_candidates=17,
                                          rng=np.random.default_rng(3))
        pairs_b = default_candidate_pairs(graph, max_candidates=17,
                                          rng=np.random.default_rng(3))
        assert len(pairs_a) == 17
        assert pairs_a == pairs_b
        assert all(a != b for a, b in pairs_a)


class TestAnnotate:
    def test_explicit_pairs_records(self, serving_pipeline, user_circuit):
        engine = AnnotationEngine(serving_pipeline, batch_size=8)
        pairs = [("BL0", "BL1"), ("BL0", "BLB0")]
        annotation = engine.annotate(user_circuit, pairs=pairs)
        assert isinstance(annotation, NetlistAnnotation)
        assert annotation.num_candidates == 2
        for record, pair in zip(annotation.records, pairs):
            assert record["pair"] == pair
            assert record["link_type"] == "net-net"
            assert 0.0 <= record["coupling_probability"] <= 1.0
            assert 0.0 <= record["capacitance_normalized"] <= 1.0
            assert record["capacitance_farad"] >= 0.0
            assert record["coupled"] == (record["coupling_probability"] >= 0.5)

    def test_unknown_pair_raises(self, serving_pipeline, user_circuit):
        engine = AnnotationEngine(serving_pipeline)
        with pytest.raises(KeyError):
            engine.annotate(user_circuit, pairs=[("nope", "also_nope")])

    def test_annotate_from_file(self, serving_pipeline, user_circuit, tmp_path):
        path = tmp_path / "macro.sp"
        path.write_text(write_spice(user_circuit))
        engine = AnnotationEngine(serving_pipeline, threshold=0.0)
        annotation = engine.annotate(path, max_candidates=10)
        assert annotation.num_candidates == 10
        assert annotation.couplings == annotation.records  # threshold 0 keeps all
        text = annotation.annotated_spice()
        assert "CPRED0" in text
        assert text.rstrip().endswith(".end")
        # The annotated netlist must still be parseable SPICE.
        reparsed = parse_spice_file(path)  # original parses
        assert reparsed.nets
        annotated_path = tmp_path / "macro.annotated.sp"
        annotated_path.write_text(text)
        assert parse_spice_file(annotated_path).nets

    def test_bare_graph_has_no_netlist_to_annotate(self, serving_pipeline, user_circuit):
        graph = netlist_to_graph(user_circuit.flatten())
        engine = AnnotationEngine(serving_pipeline)
        annotation = engine.annotate(graph, pairs=[("BL0", "BL1")])
        with pytest.raises(RuntimeError, match="bare graph"):
            annotation.annotated_spice()

    def test_json_report_roundtrip(self, serving_pipeline, user_circuit, tmp_path):
        engine = AnnotationEngine(serving_pipeline)
        annotation = engine.annotate(user_circuit, pairs=[("BL0", "BL1")])
        path = annotation.write_json(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["design"] == "SERVE_TEST"
        assert payload["num_candidates"] == 1
        assert payload["records"][0]["pair"] == ["BL0", "BL1"]

    def test_repeat_annotation_shares_cache(self, serving_pipeline, user_circuit):
        engine = AnnotationEngine(serving_pipeline, cache=PECache())
        pairs = [("BL0", "BL1"), ("BL1", "BLB1")]
        first = engine.annotate(user_circuit, pairs=pairs, seed=7)
        misses = engine.cache.misses
        second = engine.annotate(user_circuit, pairs=pairs, seed=7)
        # The identical workload must be served from the shared PE cache.
        assert engine.cache.misses == misses
        assert engine.cache.hits >= len(pairs)
        for a, b in zip(first.records, second.records):
            assert a == b

    def test_annotate_many_returns_one_report_per_netlist(self, serving_pipeline,
                                                          user_circuit):
        engine = AnnotationEngine(serving_pipeline)
        pairs = [("BL0", "BL1")]
        reports = engine.annotate_many([user_circuit, user_circuit],
                                       pairs=[pairs, pairs], seed=3)
        assert [r.num_candidates for r in reports] == [1, 1]

    def test_annotate_many_misaligned_pairs_raises(self, serving_pipeline, user_circuit):
        engine = AnnotationEngine(serving_pipeline)
        with pytest.raises(ValueError, match="align"):
            engine.annotate_many([user_circuit], pairs=[[("BL0", "BL1")], [("x", "y")]])


class TestScorePairs:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_empty_pairs_score_to_no_records(self, serving_pipeline, user_circuit,
                                             workers):
        engine = AnnotationEngine(serving_pipeline, workers=workers)
        graph = netlist_to_graph(user_circuit.flatten())
        assert engine.score_pairs(graph, [], seed=3) == []

    def test_equals_chunk_by_chunk_hook_replay(self, serving_pipeline, user_circuit):
        """The daemon and the benchmark replay these hooks chunk by chunk;
        with hub subsampling on (per-chunk RNG) that must be byte-identical."""
        assert serving_pipeline.config.data.max_nodes_per_hop is not None
        engine = AnnotationEngine(serving_pipeline, batch_size=3, cache=PECache())
        graph = netlist_to_graph(user_circuit.flatten())
        pairs = default_candidate_pairs(graph, max_candidates=8,
                                        rng=np.random.default_rng(2))
        links = engine.links_for_pairs(graph, pairs)
        dataset = engine.request_dataset(graph, links, seed=4)
        chunks = engine.request_chunks(len(links))
        assert len(chunks) == 3
        outputs = [engine.predict_samples(engine.extract_chunk(dataset, chunk))
                   for chunk in chunks]
        replay = engine.build_records(pairs, links,
                                      np.concatenate([probs for probs, _ in outputs]),
                                      np.concatenate([caps for _, caps in outputs]))
        assert engine.score_pairs(graph, pairs, seed=4) == replay

    def test_default_candidate_cap_is_shared_with_the_cli(self):
        import inspect

        from repro.core.cli import build_parser
        from repro.core.serve import DEFAULT_MAX_CANDIDATES

        args = build_parser().parse_args(["annotate", "ckpt", "n.sp"])
        assert args.max_candidates == DEFAULT_MAX_CANDIDATES
        for entry in (default_candidate_pairs, AnnotationEngine.annotate,
                      AnnotationEngine.annotate_many, AnnotationEngine.annotate_sharded):
            default = inspect.signature(entry).parameters["max_candidates"].default
            assert default == DEFAULT_MAX_CANDIDATES, entry.__name__


class TestStatsPECacheKey:
    """Regression: ``stats`` PEs depend on device W/L, not only on topology."""

    def test_resized_design_under_same_name_matches_fresh_engine(self, tiny_config,
                                                                 user_circuit):
        config = tiny_config.with_model(pe_kind="stats")
        pipeline = CircuitGPSPipeline.from_models(
            config, build_model(config, rng=0),
            heads={("edge_regression", "all"): build_model(config, rng=1)})
        original = user_circuit.flatten()
        resized = copy.deepcopy(original)
        mosfets = [d for d in resized.devices if isinstance(d, Mosfet)]
        for device in mosfets[::2]:
            device.width *= 4.0
            device.length *= 2.0
        pairs = [("BL0", "BL1"), ("BL1", "BLB1"), ("WL0", "BL0")]

        engine = AnnotationEngine(pipeline, cache=PECache())
        engine.annotate(original, pairs=pairs, seed=3)
        served = engine.annotate(resized, pairs=pairs, seed=3)
        fresh = AnnotationEngine(pipeline, cache=PECache()).annotate(resized, pairs=pairs, seed=3)
        assert served.design == fresh.design == original.name
        assert served.records == fresh.records


class TestBucketLayoutSharing:
    def test_one_bucket_layout_per_batch_for_both_models_and_all_layers(
            self, tiny_config, user_circuit, monkeypatch):
        """Both serving models and every GPS layer share one bucket layout."""
        from repro.nn import functional as F

        config = tiny_config.with_model(attention="transformer", num_layers=2)
        pipeline = CircuitGPSPipeline.from_models(
            config, build_model(config, rng=0),
            heads={("edge_regression", "all"): build_model(config, rng=1)})
        engine = AnnotationEngine(pipeline, cache=PECache())
        calls = {"layout": 0, "batch": 0}
        layout, predict = F.bucket_layout, engine.predict_batch

        def counting_layout(index):
            calls["layout"] += 1
            return layout(index)

        def counting_predict(batch):
            calls["batch"] += 1
            return predict(batch)

        monkeypatch.setattr(F, "bucket_layout", counting_layout)
        monkeypatch.setattr(engine, "predict_batch", counting_predict)
        engine.annotate(user_circuit, pairs=[("BL0", "BL1"), ("BL1", "BLB1")], seed=3)
        assert calls == {"layout": 1, "batch": 1}


class TestDistinctSubgraphSharing:
    def test_one_digest_per_batch_for_both_models(self, tiny_config, user_circuit,
                                                  monkeypatch):
        """Both serving models share one distinct-subgraph computation."""
        from repro.graph import batch as batch_module

        config = tiny_config.with_model(attention="transformer", num_layers=2)
        pipeline = CircuitGPSPipeline.from_models(
            config, build_model(config, rng=0),
            heads={("edge_regression", "all"): build_model(config, rng=1)})
        engine = AnnotationEngine(pipeline, cache=PECache())
        calls = {"distinct": 0, "batch": 0}
        distinct, predict = batch_module._distinct_subgraphs, engine.predict_batch

        def counting_distinct(batch):
            calls["distinct"] += 1
            return distinct(batch)

        def counting_predict(batch):
            calls["batch"] += 1
            return predict(batch)

        monkeypatch.setattr(batch_module, "_distinct_subgraphs", counting_distinct)
        monkeypatch.setattr(engine, "predict_batch", counting_predict)
        pairs = [("BL0", "BL1"), ("BL1", "BL2"), ("BL0", "BL1"), ("WL0", "WL1")]
        engine.annotate(user_circuit, pairs=pairs, seed=3)
        assert calls == {"distinct": 1, "batch": 1}

    def test_debug_lines_report_distinct_subgraphs(self, serving_pipeline, user_circuit,
                                                   caplog):
        import logging

        from repro.netlist import NetlistDelta

        engine = AnnotationEngine(serving_pipeline, cache=PECache())
        pairs = [("BL0", "BL1"), ("BL0", "BL1"), ("BL0", "BL1")]
        serve_logger = logging.getLogger("repro.serve")  # does not propagate
        serve_logger.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.serve"):
                report = engine.annotate(user_circuit, pairs=pairs, seed=3)
                engine.annotate(user_circuit, pairs=pairs, seed=3)
                engine.reannotate(report, NetlistDelta())
        finally:
            serve_logger.removeHandler(caplog.handler)
        messages = [r.getMessage() for r in caplog.records]
        # Each model looks its one distinct subgraph up once per pass: a
        # miss on the first pass, a hit on the second.
        for rate in ("0.00", "0.50"):
            assert any(m.startswith("annotated SERVE_TEST")
                       and f"trunk cache hit rate {rate}, 1/3 subgraphs distinct" in m
                       for m in messages), rate
        assert any(m.startswith("reannotated SERVE_TEST") and "0/0 subgraphs distinct" in m
                   for m in messages)


class TestAnnotateManyPartialFailure:
    """on_error="collect": a failing design never discards its neighbours.

    The same contract backs both the CLI path and the annotation service's
    multi-design requests, so the report shapes are asserted here once.
    """

    def test_collect_reports_error_entries_in_place(self, serving_pipeline,
                                                    user_circuit, tmp_path):
        engine = AnnotationEngine(serving_pipeline)
        bad = tmp_path / "bad.sp"
        bad.write_text("C0 other_a other_b 1f\n.end\n")  # lacks BL0/BL1
        pairs = [("BL0", "BL1")]
        reports = engine.annotate_many(
            [user_circuit, str(bad), user_circuit],
            pairs=[pairs, pairs, pairs], seed=3, on_error="collect")
        assert [r.ok for r in reports] == [True, False, True]
        failure = reports[1]
        assert failure.design == "bad"
        assert failure.error_type == "KeyError"
        assert "not found" in failure.message
        assert failure.as_dict()["status"] == "error"
        assert failure.as_dict()["error"]["type"] == "KeyError"
        # Successful neighbours are unaffected by the failure between them.
        lone = engine.annotate(user_circuit, pairs=pairs, seed=3)
        assert reports[0].records == lone.records
        ok_dict = reports[0].as_dict()
        assert ok_dict["status"] == "ok"

    def test_collect_is_worker_count_invariant(self, serving_pipeline,
                                               user_circuit, tmp_path):
        engine_serial = AnnotationEngine(serving_pipeline, workers=0)
        engine_forked = AnnotationEngine(serving_pipeline, workers=2)
        bad = tmp_path / "broken.sp"
        bad.write_text("C0 nope_a nope_b 1f\n.end\n")
        netlists = [user_circuit, str(bad), user_circuit, user_circuit]
        pairs = [[("BL0", "BL1")]] * len(netlists)
        serial = engine_serial.annotate_many(netlists, pairs=pairs, seed=5,
                                             on_error="collect")
        forked = engine_forked.annotate_many(netlists, pairs=pairs, seed=5,
                                             on_error="collect")
        assert [r.as_dict() if not r.ok else r.records for r in serial] \
            == [r.as_dict() if not r.ok else r.records for r in forked]

    def test_default_on_error_still_raises(self, serving_pipeline, tmp_path):
        engine = AnnotationEngine(serving_pipeline)
        bad = tmp_path / "still_bad.sp"
        bad.write_text("C0 a b 1f\n.end\n")
        with pytest.raises(KeyError, match="not found"):
            engine.annotate_many([str(bad)], pairs=[[("BL0", "BL1")]])

    def test_rejects_unknown_on_error(self, serving_pipeline, user_circuit):
        engine = AnnotationEngine(serving_pipeline)
        with pytest.raises(ValueError, match="on_error"):
            engine.annotate_many([user_circuit], pairs=[[("BL0", "BL1")]],
                                 on_error="ignore")


@pytest.fixture(scope="module")
def trained_link_pipeline(tiny_config, small_design):
    """A pipeline whose link model was actually pre-trained (tiny budget)."""
    from repro.core import pretrain_link_model

    result = pretrain_link_model([small_design], tiny_config)
    reg_model = build_model(tiny_config)
    return CircuitGPSPipeline.from_models(
        tiny_config, result.model, heads={("edge_regression", "all"): reg_model}
    )


class TestFloat32Serving:
    """The reduced-precision inference mode of the engine (PR 6)."""

    def test_rejects_unsupported_precision(self, serving_pipeline):
        with pytest.raises(ValueError, match="float64"):
            AnnotationEngine(serving_pipeline, precision="int8")

    def test_float32_engine_does_not_mutate_pipeline(self, serving_pipeline):
        engine = AnnotationEngine(serving_pipeline, precision="float32")
        for param in engine.link_model.parameters():
            assert param.data.dtype == np.float32
        for param in serving_pipeline.pretrain_result.model.parameters():
            assert param.data.dtype == np.float64
        for result in serving_pipeline.finetune_results.values():
            for param in result.model.parameters():
                assert param.data.dtype == np.float64

    def test_float32_probabilities_track_float64(self, trained_link_pipeline,
                                                 small_design):
        """Engine-level drift: float32 probabilities stay within 1e-4."""
        from repro.graph import permute_negative_links

        graph = small_design.graph
        positives = list(graph.links)[:40]
        negatives = permute_negative_links(graph.links, graph.num_nodes, ratio=1.0,
                                           rng=0, strict=False)[:40]
        pairs = [(graph.node_names[link.source], graph.node_names[link.target])
                 for link in positives + negatives]

        def probabilities(precision: str) -> np.ndarray:
            engine = AnnotationEngine(trained_link_pipeline, cache=PECache(),
                                      precision=precision)
            annotation = engine.annotate(graph, pairs=pairs, seed=0)
            return np.array([r["coupling_probability"] for r in annotation.records])

        np.testing.assert_allclose(probabilities("float32"),
                                   probabilities("float64"), atol=1e-4)

    def test_float32_auc_drift_within_1e4_on_bundled_designs(self):
        """Acceptance gate: float32 inference moves link AUC by <= 1e-4.

        Uses a model that is genuinely discriminative (AUC ~0.83-0.90
        zero-shot) — the paper's pretrain on the bundled training designs at
        reduced scale — because AUC drift on a near-constant predictor only
        measures how float32 noise breaks exact ties, not serving quality.
        """
        import copy

        from repro.core import (
            ExperimentConfig,
            evaluate_zero_shot_link,
            load_design_suite,
            pretrain_link_model,
        )
        from repro.core.datasets import TEST_DESIGNS, TRAIN_DESIGNS
        from repro.nn import use_dtype
        from repro.utils import seed_all

        config = (
            ExperimentConfig.fast()
            .with_model(dim=24, num_layers=2, attention="transformer", dropout=0.05)
            .with_train(epochs=2, batch_size=32, lr=3e-3)
            .with_data(scale=0.3, max_links_per_design=60, max_nodes_per_hop=12)
        )
        suite = load_design_suite(scale=config.data.scale, seed=config.data.seed)
        seed_all(config.train.seed)
        result = pretrain_link_model([suite[name] for name in TRAIN_DESIGNS], config)
        model32 = copy.deepcopy(result.model).cast(np.float32)
        for name in TEST_DESIGNS:
            metrics64 = evaluate_zero_shot_link(result.model, suite[name], config)
            with use_dtype(np.float32):
                metrics32 = evaluate_zero_shot_link(model32, suite[name], config)
            assert metrics64["auc"] >= 0.8, (
                f"reference model is not discriminative on {name}: "
                f"AUC {metrics64['auc']:.3f}"
            )
            drift = abs(metrics64["auc"] - metrics32["auc"])
            assert drift <= 1e-4, (
                f"float32 inference moved AUC on {name} by {drift:.2e}"
            )

    def test_float32_records_match_float64_structure(self, serving_pipeline,
                                                     user_circuit):
        engine64 = AnnotationEngine(serving_pipeline, cache=PECache())
        engine32 = AnnotationEngine(serving_pipeline, cache=PECache(),
                                    precision="float32")
        a64 = engine64.annotate(user_circuit, max_candidates=24, seed=0)
        a32 = engine32.annotate(user_circuit, max_candidates=24, seed=0)
        assert [r["pair"] for r in a32.records] == [r["pair"] for r in a64.records]
        caps64 = [r["capacitance_normalized"] for r in a64.records]
        caps32 = [r["capacitance_normalized"] for r in a32.records]
        np.testing.assert_allclose(caps32, caps64, atol=1e-4)
