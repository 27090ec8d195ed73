"""Tests for the composable sampling datapipes (`repro.graph.datapipe`).

Covers the uniform stage contract, declarative spec round-trips through the
``SAMPLERS`` registry, fanout-bounded extraction, and — the load-bearing
guarantee of the refactor — byte-identical parity between the staged default
pipeline and the monolithic link-sampling recipe, inlined here, at a fixed
seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import default_rng

from repro.api.registries import SAMPLERS, load_builtin_components
from repro.api.registry import RegistryError
from repro.graph import (
    CircuitGraph,
    Link,
    SamplingPipeline,
    SeedBatch,
    as_pipeline,
    balance_links,
    default_link_pipeline,
    default_node_pipeline,
    extract_enclosing_subgraphs,
    inject_link_edges,
    normalize_fanouts,
    normalize_sampling_spec,
    permute_negative_links,
)
from repro.graph.datapipe import (
    EnclosingExtractStage,
    FanoutStage,
    InjectStage,
    LinkSeedStage,
    NodeExtractStage,
    NodeSeedStage,
    PermuteNegativeStage,
    SamplerStage,
    ShuffleStage,
    UniformNegativeStage,
)

load_builtin_components()

STAGE_NAMES = [
    "link_seeds", "node_seeds", "negative_permute", "negative_uniform",
    "negative_stratified", "inject", "fanout", "enclosing", "node", "pe",
    "shuffle", "link_dataset", "node_dataset",
]


def _assert_subgraphs_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a.node_ids, b.node_ids)
        np.testing.assert_array_equal(a.edge_index, b.edge_index)
        np.testing.assert_array_equal(a.edge_types, b.edge_types)
        assert a.label == b.label
        assert a.target == b.target
        assert a.link_type == b.link_type


class TestRegistryContract:
    """Satellite 2: every stage lives in SAMPLERS under the uniform contract."""

    def test_all_stages_registered(self):
        assert set(STAGE_NAMES) <= set(SAMPLERS.names())

    def test_registry_build_constructs_configured_stages(self):
        stage = SAMPLERS.build({"type": "enclosing", "hops": 2,
                                "max_nodes_per_hop": 8})
        assert isinstance(stage, EnclosingExtractStage)
        spec = stage.spec()
        assert spec["stage"] == "enclosing"
        assert spec["hops"] == 2 and spec["max_nodes_per_hop"] == 8

    def test_every_stage_follows_the_uniform_contract(self, small_design):
        """Each registered stage is callable as ``stage(graph, seeds, rng=)``."""
        graph = small_design.graph
        for name in ["link_seeds", "negative_permute", "inject", "fanout",
                     "enclosing", "shuffle"]:
            stage = SAMPLERS.build(name)
            out_graph, seeds = stage(graph, SeedBatch(positives=graph.links[:4]),
                                     rng=default_rng(0))
            assert isinstance(seeds, SeedBatch)
            assert isinstance(out_graph, CircuitGraph)

    def test_stage_coerces_plain_link_lists(self, small_design):
        graph = small_design.graph
        links = [Link(0, 1, 4), Link(2, 3, 4), Link(4, 5, 4)]
        _, seeds = PermuteNegativeStage(ratio=1.0, strict=True)(
            graph, links, rng=default_rng(0))
        assert len(seeds.negatives) == 3
        assert seeds.positives == links


class TestSpecRoundTrip:
    def test_pipeline_spec_round_trips(self):
        pipeline = SamplingPipeline([
            LinkSeedStage(balance=True, max_links=64),
            PermuteNegativeStage(ratio=0.5),
            InjectStage(),
            FanoutStage(fanouts=[8, 4]),
            EnclosingExtractStage(),
            ShuffleStage(),
        ])
        spec = pipeline.spec()
        assert [entry["stage"] for entry in spec] == [
            "link_seeds", "negative_permute", "inject", "fanout", "enclosing",
            "shuffle"]
        assert SamplingPipeline.from_spec(spec).spec() == spec

    def test_as_pipeline_accepts_names_dicts_and_stages(self):
        pipeline = as_pipeline(["link_seeds",
                                {"stage": "negative_permute", "ratio": 2.0},
                                EnclosingExtractStage(hops=2)])
        spec = pipeline.spec()
        assert spec[1]["stage"] == "negative_permute"
        assert spec[1]["ratio"] == 2.0
        assert spec[2]["hops"] == 2

    def test_normalize_sampling_spec(self):
        assert normalize_sampling_spec(None) is None
        assert normalize_sampling_spec("link_dataset") == "link_dataset"
        spec = normalize_sampling_spec([{"stage": "link_seeds"}, "enclosing"])
        assert [e["stage"] for e in spec] == ["link_seeds", "enclosing"]
        # Normalisation is canonical: re-normalising is a fixed point.
        assert normalize_sampling_spec(spec) == spec

    def test_unknown_stage_is_an_actionable_error(self):
        with pytest.raises(Exception, match="no_such_stage"):
            normalize_sampling_spec([{"stage": "no_such_stage"}])
        with pytest.raises(Exception, match="no_such_stage"):
            normalize_sampling_spec("no_such_stage")

    def test_run_without_extraction_stage_raises(self, small_design):
        pipeline = SamplingPipeline([LinkSeedStage(max_links=4)])
        with pytest.raises(ValueError, match="extraction stage"):
            pipeline.run(small_design.graph, rng=default_rng(0))


class TestDefaultPipelineParity:
    """The staged default pipeline is byte-identical to the legacy recipe."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("inject", [True, False])
    def test_link_pipeline_matches_monolithic_recipe(self, small_design, seed,
                                                     inject):
        graph = small_design.graph
        kwargs = dict(max_links=40, negative_ratio=1.0, balance=True, hops=1,
                      max_nodes_per_hop=10, inject_links=inject)

        # The historical monolithic draw sequence, inlined verbatim.
        rng = default_rng(seed)
        positives = balance_links(list(graph.links), rng=rng)
        if len(positives) > kwargs["max_links"]:
            chosen = rng.choice(len(positives), size=kwargs["max_links"],
                                replace=False)
            positives = [positives[i] for i in chosen]
        negatives = permute_negative_links(positives, graph.num_nodes,
                                           ratio=kwargs["negative_ratio"],
                                           rng=rng, strict=False)
        if inject:
            host = inject_link_edges(graph, list(graph.links) + negatives)
        else:
            host = graph
        samples = extract_enclosing_subgraphs(
            host, positives + negatives, hops=kwargs["hops"],
            max_nodes_per_hop=kwargs["max_nodes_per_hop"],
            add_target_edge=not inject, rng=rng)
        order = rng.permutation(len(samples))
        expected = [samples[i] for i in order]

        pipeline = default_link_pipeline(**kwargs)
        got = pipeline.run(graph, rng=default_rng(seed))
        _assert_subgraphs_equal(got, expected)

    def test_default_spec_is_declarative(self):
        spec = default_link_pipeline(max_links=40, fanouts=[8, 4]).spec()
        assert [e["stage"] for e in spec] == [
            "link_seeds", "negative_permute", "inject", "fanout", "enclosing",
            "shuffle"]
        rebuilt = SamplingPipeline.from_spec(spec)
        assert rebuilt.spec() == spec

    def test_node_pipeline_extracts_anchored_subgraphs(self, small_design):
        graph = small_design.graph
        pipeline = default_node_pipeline(limit=6, hops=1)
        samples = pipeline.run(graph, rng=default_rng(3))
        assert 0 < len(samples) <= 6
        assert all(s.anchors == (0, 0) for s in samples)


class TestFanoutBounding:
    def test_normalize_fanouts(self):
        assert normalize_fanouts(None) is None
        assert normalize_fanouts([8, 4]) == (8, 4)
        assert normalize_fanouts((8, -1)) == (8, None)
        assert normalize_fanouts(8) == (8,)
        with pytest.raises(ValueError):
            normalize_fanouts([0])

    def test_fanout_stage_records_plan_for_extraction(self, small_design):
        graph = small_design.graph
        _, seeds = FanoutStage(fanouts=[4, 2])(graph, None, rng=default_rng(0))
        assert seeds.fanouts == (4, 2)

    def test_fanout_bounds_subgraph_growth(self, small_design):
        """Capped per-hop expansion yields subgraphs no larger than unbounded."""
        graph = small_design.graph
        links = graph.links[:12]
        free = EnclosingExtractStage(hops=2).extract_many(
            graph, links, rng=default_rng(0))
        capped = EnclosingExtractStage(hops=2, fanouts=[2, 2]).extract_many(
            graph, links, rng=default_rng(0))
        assert len(free) == len(capped) == len(links)
        assert all(c.node_ids.size <= f.node_ids.size
                   for c, f in zip(capped, free))
        assert sum(c.node_ids.size for c in capped) < \
            sum(f.node_ids.size for f in free)

    def test_fanout_plan_length_overrides_hops(self, small_design):
        graph = small_design.graph
        stage = EnclosingExtractStage(hops=1, fanouts=[3, 3, 3])
        [sub] = stage.extract_many(graph, graph.links[:1], rng=default_rng(0))
        [wide] = EnclosingExtractStage(hops=1).extract_many(
            graph, graph.links[:1], rng=default_rng(0))
        assert sub.node_ids.size >= 2
        assert wide.node_ids.size >= 2


class TestStageBehaviour:
    def test_link_seed_stage_balances_and_caps(self, small_design):
        graph = small_design.graph
        _, seeds = LinkSeedStage(balance=True, max_links=8)(
            graph, None, rng=default_rng(0))
        assert len(seeds.positives) == 8
        assert all(l.label > 0 for l in seeds.positives)

    def test_node_seed_stage_subsamples_aligned_targets(self, small_design):
        graph = small_design.graph
        nodes = np.arange(12, dtype=np.int64)
        targets = [float(i) for i in range(12)]
        _, seeds = NodeSeedStage(limit=5)(
            graph, SeedBatch(nodes=nodes, targets=targets), rng=default_rng(0))
        assert seeds.nodes.size == 5
        assert [targets[int(n)] for n in seeds.nodes] == seeds.targets

    def test_inject_stage_suppresses_target_edge(self, small_design):
        graph = small_design.graph
        link = graph.links[0]
        host, seeds = InjectStage()(graph, SeedBatch(positives=[link]),
                                    rng=default_rng(0))
        assert seeds.injected
        assert host.edge_index.shape[1] > graph.edge_index.shape[1]
        # Injected host: the extraction stage must not re-add the target edge.
        [sub_injected] = EnclosingExtractStage().extract_many(
            host, [link], rng=default_rng(0), seeds=seeds)
        [sub_plain] = EnclosingExtractStage().extract_many(
            graph, [link], rng=default_rng(0))
        assert sub_plain.edge_types[-1] == link.link_type

    def test_uniform_negative_stage_emits_conditioned_batches(self, small_design):
        graph = small_design.graph
        _, seeds = UniformNegativeStage(k=1, strict=False)(
            graph, SeedBatch(positives=graph.links[:6]), rng=default_rng(0))
        assert seeds.conditioned
        assert len(seeds.negatives) <= 2 * 6
        positive_keys = {l.key() for l in graph.links}
        assert all(l.key() not in positive_keys for l in seeds.negatives)

    def test_shuffle_stage_permutes_subgraphs(self, small_design):
        graph = small_design.graph
        pipeline = SamplingPipeline([LinkSeedStage(max_links=16),
                                     EnclosingExtractStage()])
        base = pipeline.run(graph, rng=default_rng(5))
        shuffled = SamplingPipeline([LinkSeedStage(max_links=16),
                                     EnclosingExtractStage(),
                                     ShuffleStage()]).run(graph,
                                                          rng=default_rng(5))
        assert sorted(s.node_ids[0] for s in base) == \
            sorted(s.node_ids[0] for s in shuffled)


class TestProtocolEdges:
    """Edge paths of the stage protocol: coercion forms, reprs, spec aliases
    and the less-travelled stages (stratified negatives, PE attachment)."""

    def test_seed_batch_coercion_forms(self):
        nodes = np.array([1, 2, 3], dtype=np.int64)
        assert SeedBatch.coerce(nodes).nodes is nodes
        from_ints = SeedBatch.coerce([4, 5])
        assert from_ints.nodes.dtype == np.int64
        assert list(from_ints.nodes) == [4, 5]
        with pytest.raises(TypeError, match="node array"):
            SeedBatch.coerce(object())
        text = repr(SeedBatch(positives=[Link(0, 1, 4)], nodes=nodes))
        assert "positives=1" in text and "nodes=3" in text
        assert "subgraphs=?" in text

    def test_base_stage_apply_is_abstract(self, small_design):
        with pytest.raises(NotImplementedError):
            SamplerStage()(small_design.graph, None, rng=0)

    def test_stage_and_pipeline_reprs(self):
        stage = LinkSeedStage(balance=False, max_links=7)
        assert repr(stage) == \
            "LinkSeedStage(balance=False, max_links=7, per_type=None)"
        pipeline = as_pipeline(["link_seeds", "shuffle"])
        assert len(pipeline) == 2
        assert "link_seeds" in repr(pipeline) and "shuffle" in repr(pipeline)

    def test_node_seeds_can_include_devices(self, small_design):
        graph = small_design.graph
        stage = SAMPLERS.build({"type": "node_seeds", "include_devices": True})
        _, seeds = stage(graph, None, rng=default_rng(0))
        assert seeds.nodes.size == graph.num_nodes

    def test_stratified_stage_appends_collision_free_negatives(self, small_design):
        graph = small_design.graph
        stage = SAMPLERS.build({"type": "negative_stratified", "k": 1,
                                "strict": False})
        _, seeds = stage(graph, SeedBatch(positives=graph.links[:6]),
                         rng=default_rng(0))
        existing = {l.key() for l in graph.links}
        assert seeds.negatives
        for neg in seeds.negatives:
            assert neg.label == 0.0
            assert neg.key() not in existing

    def test_pe_stage_attaches_positional_encodings(self, small_design):
        pipeline = as_pipeline([
            {"stage": "link_seeds", "max_links": 4},
            {"stage": "negative_permute", "ratio": 1.0},
            {"stage": "enclosing", "hops": 1, "max_nodes_per_hop": 8},
            {"stage": "pe", "pe_kind": "dspd"},
        ])
        subgraphs = pipeline.run(small_design.graph, rng=default_rng(0))
        assert subgraphs
        assert all(sg.pe is not None for sg in subgraphs)

    def test_as_pipeline_accepts_every_spec_form(self):
        pipeline = default_link_pipeline()
        assert as_pipeline(pipeline) is pipeline
        assert isinstance(as_pipeline("link_dataset"), SamplingPipeline)
        assert len(as_pipeline("shuffle")) == 1
        assert len(as_pipeline({"stage": "enclosing", "hops": 2})) == 1
        with pytest.raises(RegistryError, match="sampling spec"):
            as_pipeline(123)

    def test_stage_entry_dicts_accept_type_alias_and_reject_bad_entries(self):
        pipeline = as_pipeline([{"type": "shuffle"}])
        assert pipeline.spec()[0]["stage"] == "shuffle"
        with pytest.raises(RegistryError, match="no 'stage' key"):
            SamplingPipeline([{"hops": 2}])
        with pytest.raises(RegistryError, match="callable"):
            SamplingPipeline([123])

    def test_spec_of_a_raw_callable_stage_uses_its_name(self, small_design):
        def passthrough(graph, seeds, *, rng):
            return graph, seeds

        pipeline = SamplingPipeline([passthrough, "shuffle"])
        assert pipeline.spec()[0] == {"stage": "passthrough"}
        subgraphs = SamplingPipeline(
            [passthrough, LinkSeedStage(max_links=4), PermuteNegativeStage(),
             EnclosingExtractStage()]).run(small_design.graph,
                                           rng=default_rng(0))
        assert subgraphs

    def test_default_node_pipeline_inserts_fanout_stage(self):
        pipeline = default_node_pipeline(fanouts=[4, 4])
        assert any(entry["stage"] == "fanout" for entry in pipeline.spec())
