"""Tests for the synthetic design generators (the Table IV design suite)."""

import pytest

from repro.netlist import (
    PAPER_DESIGNS,
    TEST_DESIGNS,
    TRAIN_DESIGNS,
    build_design,
    digital_clk_gen,
    sandwich_ram,
    sram_array,
    ssram,
    timing_control,
    ultra8t,
)
from repro.netlist.devices import Capacitor, Mosfet, Resistor


class TestDesignSuite:
    def test_split_matches_paper(self):
        assert set(TRAIN_DESIGNS) == {"SSRAM", "ULTRA8T", "SANDWICH_RAM"}
        assert set(TEST_DESIGNS) == {"DIGITAL_CLK_GEN", "TIMING_CONTROL", "ARRAY_128_32"}

    def test_build_design_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_design("NOT_A_DESIGN")

    def test_every_paper_design_builds(self):
        assert len(PAPER_DESIGNS) == 6
        for name in PAPER_DESIGNS:
            circuit = build_design(name, scale=0.25)
            assert circuit.name == name
            assert len(circuit.flatten().devices) > 10

    def test_scale_shrinks_designs(self):
        small = build_design("ARRAY_128_32", scale=0.25).flatten()
        large = build_design("ARRAY_128_32", scale=0.5).flatten()
        assert len(small.devices) < len(large.devices)

    @pytest.mark.parametrize("name", list(PAPER_DESIGNS))
    def test_all_designs_flatten_cleanly(self, name):
        flat = build_design(name, scale=0.3).flatten()
        stats = flat.stats()
        assert stats.num_devices > 0
        assert stats.num_nets > 0
        assert stats.num_pins == sum(len(d.terminals) for d in flat.devices)


class TestIndividualGenerators:
    def test_sram_array_cell_count(self):
        circuit = sram_array(rows=4, cols=3, with_periphery=False)
        flat = circuit.flatten()
        assert len(flat.devices) == 4 * 3 * 6

    def test_sram_array_8t_cells(self):
        flat = sram_array(rows=2, cols=2, cell="8t", with_periphery=False).flatten()
        assert len(flat.devices) == 2 * 2 * 8

    def test_sram_array_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sram_array(rows=0, cols=4)

    def test_ssram_contains_memory_and_logic(self):
        flat = ssram(rows=4, cols=4).flatten()
        stats = flat.stats()
        assert stats.num_mosfets > 4 * 4 * 6      # array plus periphery/control
        assert stats.num_capacitors > 0           # decap cells

    def test_ultra8t_contains_analog_devices(self):
        flat = ultra8t(rows=4, cols=4).flatten()
        kinds = {type(d) for d in flat.devices}
        assert Resistor in kinds and Capacitor in kinds and Mosfet in kinds

    def test_ultra8t_has_two_supply_domains(self):
        flat = ultra8t(rows=4, cols=4).flatten()
        assert "VDDL" in flat.nets and "VDD" in flat.nets

    def test_sandwich_ram_has_two_banks_and_macs(self):
        flat = sandwich_ram(rows=4, cols=4, slices=2).flatten()
        nets = set(flat.nets)
        assert any(n.startswith("B0BL") for n in nets)
        assert any(n.startswith("B1BL") for n in nets)
        assert "MAC0" in nets and "MAC1" in nets

    def test_digital_clk_gen_has_delay_line_and_replicas(self):
        flat = digital_clk_gen(delay_stages=6, replica_rows=4).flatten()
        nets = set(flat.nets)
        assert "dly0" in nets and "pulse" in nets
        assert "RBL0" in nets and "RBL1" in nets

    def test_timing_control_produces_control_outputs(self):
        circuit = timing_control(num_outputs=4, pipeline_depth=2)
        nets = set(circuit.flatten().nets)
        assert {"CTRL0", "CTRL1", "CTRL2", "CTRL3"} <= nets

    def test_design_sizes_scale_with_parameters(self):
        small = ssram(rows=4, cols=4).flatten()
        large = ssram(rows=8, cols=8).flatten()
        assert len(large.devices) > 2 * len(small.devices)
