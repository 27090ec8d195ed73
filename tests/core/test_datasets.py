"""Tests for dataset construction: normalisers, design data, task samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CapacitanceNormalizer, DesignData, StatsNormalizer
from repro.core.datasets import (
    build_edge_regression_samples,
    build_link_samples,
    build_node_regression_samples,
    load_design_suite,
)
from repro.graph import NODE_DEVICE
from repro.netlist import parse_spice, write_spice, timing_control


class TestCapacitanceNormalizer:
    def test_bounds_map_to_unit_interval(self):
        normalizer = CapacitanceNormalizer(1e-21, 1e-15)
        assert normalizer.normalize(1e-21) == pytest.approx(0.0)
        assert normalizer.normalize(1e-15) == pytest.approx(1.0)
        assert normalizer.normalize(1e-18) == pytest.approx(0.5)

    def test_zero_and_negative_map_to_zero(self):
        normalizer = CapacitanceNormalizer()
        assert normalizer.normalize(0.0) == 0.0
        assert normalizer.normalize(-1e-18) == 0.0

    def test_out_of_range_clipped(self):
        normalizer = CapacitanceNormalizer(1e-21, 1e-15)
        assert normalizer.normalize(1e-12) == 1.0
        assert normalizer.normalize(1e-24) == 0.0

    def test_in_range(self):
        normalizer = CapacitanceNormalizer(1e-21, 1e-15)
        assert normalizer.in_range(5e-18)
        assert not normalizer.in_range(1e-14)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            CapacitanceNormalizer(1e-15, 1e-21)
        with pytest.raises(ValueError):
            CapacitanceNormalizer(0.0, 1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-21, 1e-15))
    def test_roundtrip(self, value):
        normalizer = CapacitanceNormalizer(1e-21, 1e-15)
        assert normalizer.denormalize(normalizer.normalize(value)) == pytest.approx(value, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-21, 1e-15), st.floats(1e-21, 1e-15))
    def test_monotone(self, a, b):
        normalizer = CapacitanceNormalizer(1e-21, 1e-15)
        low, high = min(a, b), max(a, b)
        assert normalizer.normalize(low) <= normalizer.normalize(high) + 1e-12

    def test_zero_maps_to_zero(self):
        normalizer = CapacitanceNormalizer()
        assert normalizer.normalize(0.0) == 0.0
        assert normalizer.denormalize(0.0) == 0.0
        assert normalizer.denormalize(normalizer.normalize(1e-18)) == pytest.approx(
            1e-18, rel=1e-6)


class TestStatsNormalizer:
    def test_transform_clips_to_unit_interval(self):
        rng = np.random.default_rng(0)
        train = rng.uniform(0, 10, size=(30, 5))
        normalizer = StatsNormalizer.fit([train])
        test = rng.uniform(-5, 20, size=(10, 5))
        out = normalizer.transform(test)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_fit_on_multiple_matrices(self):
        a = np.zeros((5, 3))
        b = np.ones((5, 3)) * 10
        normalizer = StatsNormalizer.fit([a, b])
        np.testing.assert_allclose(normalizer.transform(b), np.ones((5, 3)))

    def test_constant_column_safe(self):
        normalizer = StatsNormalizer.fit([np.ones((4, 2))])
        assert np.all(np.isfinite(normalizer.transform(np.ones((4, 2)))))


class TestDesignData:
    def test_build_runs_full_pipeline(self):
        design = DesignData.build("TIMING_CONTROL", scale=0.3, seed=0)
        assert design.split == "test"
        assert design.graph.num_links > 0
        assert design.graph.node_ground_caps is not None

    def test_from_circuit_accepts_parsed_spice(self):
        text = write_spice(timing_control(num_outputs=2, pipeline_depth=1))
        circuit = parse_spice(text, name="parsed_tc")
        design = DesignData.from_circuit(circuit, seed=0)
        assert design.name == "parsed_tc"
        assert design.graph.num_nodes > 0
        assert design.graph.num_links > 0

    def test_apply_stats_normalizer(self, small_design):
        normalizer = StatsNormalizer.fit([small_design.raw_stats])
        small_design.apply_stats_normalizer(normalizer)
        assert small_design.graph.node_stats.max() <= 1.0
        assert small_design.raw_stats.max() > 1.0  # raw values preserved

    def test_load_design_suite_cached(self):
        a = load_design_suite(scale=0.25, seed=0, names=["TIMING_CONTROL"])
        b = load_design_suite(scale=0.25, seed=0, names=["TIMING_CONTROL"])
        assert a["TIMING_CONTROL"] is b["TIMING_CONTROL"]

    def test_load_design_suite_normalises_with_train_stats(self):
        suite = load_design_suite(scale=0.25, seed=1, names=["SSRAM", "TIMING_CONTROL"])
        for design in suite.values():
            assert design.graph.node_stats.max() <= 1.0 + 1e-9


class TestTaskSamples:
    def test_link_samples_balanced_and_encoded(self, small_design, tiny_config):
        samples = build_link_samples(small_design, tiny_config.data, pe_kind="dspd", rng=0)
        labels = np.array([s.label for s in samples])
        assert 0.35 <= labels.mean() <= 0.65
        assert all(s.pe is not None for s in samples)

    def test_edge_regression_targets_normalised(self, small_design, tiny_config):
        samples = build_edge_regression_samples(small_design, tiny_config.data, rng=0)
        targets = np.array([s.target for s in samples])
        assert targets.min() >= 0.0 and targets.max() <= 1.0
        positives = [s for s in samples if s.label == 1.0]
        assert all(s.target > 0 for s in positives)

    def test_edge_regression_negatives_have_zero_target(self, small_design, tiny_config):
        samples = build_edge_regression_samples(small_design, tiny_config.data,
                                                include_negatives=True, rng=0)
        negatives = [s for s in samples if s.label == 0.0]
        assert negatives
        assert all(s.target == 0.0 for s in negatives)

    def test_edge_regression_capacitance_recorded(self, small_design, tiny_config):
        samples = build_edge_regression_samples(small_design, tiny_config.data, rng=0)
        positive = next(s for s in samples if s.label == 1.0)
        assert positive.extras["capacitance_farad"] > 0

    def test_node_regression_samples(self, small_design, tiny_config):
        samples = build_node_regression_samples(small_design, tiny_config.data, rng=0)
        assert samples
        assert len(samples) <= tiny_config.data.max_nodes_per_design
        for sample in samples:
            assert sample.anchors == (0, 0)
            assert 0.0 <= sample.target <= 1.0
            node_type = small_design.graph.node_types[sample.extras["node"]]
            assert node_type != NODE_DEVICE

    def test_node_regression_requires_ground_caps(self, small_design, tiny_config):
        import copy

        design = copy.copy(small_design)
        design.graph = copy.copy(small_design.graph)
        design.graph.node_ground_caps = None
        with pytest.raises(ValueError):
            build_node_regression_samples(design, tiny_config.data, rng=0)
