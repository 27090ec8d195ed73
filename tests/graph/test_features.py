"""Tests for the Table-I circuit-statistics matrix X_C."""

import numpy as np
import pytest

from repro.graph import STATS_DIM, netlist_to_graph, normalize_stats
from repro.graph.features import PIN_TYPE_CODES
from repro.netlist import (PAPER_DESIGNS, Capacitor, Circuit, Diode, Mosfet, Resistor,
                           build_design, ssram)

from .graph_oracle import per_node_stats


@pytest.fixture()
def simple_circuit():
    circuit = Circuit("demo", ports=["in", "out"])
    circuit.add(Mosfet("M1", {"D": "out", "G": "in", "S": "VSS", "B": "VSS"},
                       polarity="nmos", width=200e-9, length=40e-9, multiplier=2))
    circuit.add(Mosfet("M2", {"D": "out", "G": "in", "S": "VDD", "B": "VDD"},
                       polarity="pmos", width=400e-9, length=40e-9))
    circuit.add(Resistor("R1", {"P": "out", "N": "mid"}, resistance=1e3,
                         width=300e-9, length=2e-6))
    circuit.add(Capacitor("C1", {"P": "mid", "N": "VSS"}, capacitance=1e-15,
                          fingers=6, length=3e-6))
    return circuit


def _stats_for(circuit, name):
    graph = netlist_to_graph(circuit)
    return graph.node_stats[graph.node_index(name)]


class TestNetStats:
    def test_transistor_counts_and_terminals(self, simple_circuit):
        stats = _stats_for(simple_circuit, "out")
        assert stats[0] == 2          # two transistors on "out"
        assert stats[1] == 0          # no gate terminals on "out"
        assert stats[2] == 2          # two source/drain terminals
        assert stats[9] == 1          # one resistor
        assert stats[12] == 1.0       # "out" is a port

    def test_gate_terminal_counting(self, simple_circuit):
        stats = _stats_for(simple_circuit, "in")
        assert stats[1] == 2          # both gates connect to "in"
        assert stats[2] == 0

    def test_total_width_includes_multiplier(self, simple_circuit):
        stats = _stats_for(simple_circuit, "out")
        expected_um = (200e-9 * 2 + 400e-9) * 1e6
        assert stats[4] == pytest.approx(expected_um)

    def test_capacitor_fields(self, simple_circuit):
        stats = _stats_for(simple_circuit, "mid")
        assert stats[6] == 1
        assert stats[7] == pytest.approx(3.0)   # length in um
        assert stats[8] == 6                    # fingers
        assert stats[12] == 0.0                 # not a port


class TestDeviceStats:
    def test_mosfet_geometry(self, simple_circuit):
        stats = _stats_for(simple_circuit, "M1")
        assert stats[0] == 2                     # multiplier
        assert stats[1] == pytest.approx(0.04)   # length in um
        assert stats[2] == pytest.approx(0.2)    # width in um
        assert stats[9] == 4                     # number of terminals
        assert stats[10] == 0                    # nmos type code

    def test_resistor_and_capacitor_slots(self, simple_circuit):
        r_stats = _stats_for(simple_circuit, "R1")
        assert r_stats[4] == pytest.approx(2.0)  # resistor length um
        c_stats = _stats_for(simple_circuit, "C1")
        assert c_stats[8] == 6                   # capacitor fingers


class TestPinStats:
    def test_pin_type_codes(self, simple_circuit):
        for terminal, code in (("G", PIN_TYPE_CODES["G"]), ("D", PIN_TYPE_CODES["D"]),
                               ("S", PIN_TYPE_CODES["S"])):
            stats = _stats_for(simple_circuit, f"M1:{terminal}")
            assert stats[0] == code
            assert np.all(stats[1:] == 0)

    def test_matrix_shape(self, simple_circuit):
        graph = netlist_to_graph(simple_circuit)
        assert graph.node_stats.shape == (graph.num_nodes, STATS_DIM)
        assert netlist_to_graph(simple_circuit, with_stats=False).node_stats is None

    def test_code_comes_from_the_terminal_not_the_pin_name(self):
        # A device name holding ':' cannot be split back out of its pin
        # names; the walk takes the code from the terminal itself.
        circuit = Circuit("colon")
        circuit.add(Mosfet("X1:M1", {"D": "a", "G": "b", "S": "c", "B": "c"}))
        stats = _stats_for(circuit, "X1:M1:G")
        assert stats[0] == PIN_TYPE_CODES["G"]


class TestOnePassMatchesPerNode:
    @pytest.mark.parametrize("name", sorted(PAPER_DESIGNS))
    def test_paper_designs_byte_identical(self, name):
        flat = build_design(name, scale=0.3).flatten()
        graph = netlist_to_graph(flat)
        want = per_node_stats(flat, graph.node_names, graph.node_types)
        assert graph.node_stats.tobytes() == want.tobytes()

    def test_mixed_devices_and_repeated_nets(self, simple_circuit):
        circuit = simple_circuit
        circuit.add(Diode("D1", {"P": "mid", "N": "out"}, multiplier=3))
        circuit.add(Mosfet("M3", {"D": "mid", "G": "mid", "S": "mid", "B": "out"},
                           width=123e-9, length=77e-9, multiplier=5))
        circuit.add(Resistor("R2", {"P": "out", "N": "out"}, width=1e-7, length=3e-7))
        for source in (circuit, ssram(rows=3, cols=2).flatten()):
            graph = netlist_to_graph(source, include_power_nets=True)
            want = per_node_stats(source, graph.node_names, graph.node_types)
            assert graph.node_stats.tobytes() == want.tobytes()


class TestNormalization:
    def test_normalized_range(self):
        rng = np.random.default_rng(0)
        stats = rng.uniform(0, 100, size=(50, STATS_DIM))
        normalised, minimum, value_range = normalize_stats(stats)
        assert normalised.min() >= 0.0 and normalised.max() <= 1.0
        assert minimum.shape == (STATS_DIM,)
        assert value_range.shape == (STATS_DIM,)

    def test_constant_column_does_not_divide_by_zero(self):
        stats = np.ones((10, STATS_DIM))
        normalised, _, _ = normalize_stats(stats)
        assert np.all(np.isfinite(normalised))

    def test_reference_normalization_clips(self):
        train = np.zeros((5, STATS_DIM))
        train[:, 0] = np.arange(5)
        test = np.zeros((2, STATS_DIM))
        test[:, 0] = [10.0, -5.0]
        normalised, _, _ = normalize_stats(test, reference=train)
        assert normalised[0, 0] == 1.0
        assert normalised[1, 0] == 0.0
