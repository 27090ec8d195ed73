"""Tests for netlist-to-graph conversion and parasitic attachment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EDGE_DEVICE_PIN,
    EDGE_NET_PIN,
    LINK_TYPE_NAMES,
    NODE_DEVICE,
    NODE_NET,
    NODE_PIN,
    netlist_to_graph,
)
from repro.netlist import (PAPER_DESIGNS, Capacitor, Circuit, Diode, Mosfet, Resistor,
                           build_design, extract_parasitics, hierarchical_sram, parse_spice,
                           place_circuit, ssram, write_spice)

from .graph_oracle import assert_graphs_identical, legacy_netlist_to_graph


@pytest.fixture(scope="module")
def pipeline():
    circuit = ssram(rows=3, cols=3).flatten()
    placement = place_circuit(circuit, rng=0)
    report = extract_parasitics(placement, rng=1)
    graph = netlist_to_graph(circuit, report)
    return circuit, report, graph


class TestStructure:
    def test_graph_validates(self, pipeline):
        _, _, graph = pipeline
        graph.validate()

    def test_node_counts(self, pipeline):
        circuit, _, graph = pipeline
        stats = circuit.stats()
        assert int((graph.node_types == NODE_DEVICE).sum()) == stats.num_devices
        assert int((graph.node_types == NODE_PIN).sum()) == stats.num_pins
        signal_nets = [n for n in circuit.nets if not Circuit.is_power_rail(n)]
        assert int((graph.node_types == NODE_NET).sum()) == len(signal_nets)

    def test_power_nets_excluded_by_default(self, pipeline):
        _, _, graph = pipeline
        assert not graph.has_node("VDD")
        assert not graph.has_node("VSS")

    def test_power_nets_included_on_request(self, pipeline):
        circuit, _, _ = pipeline
        graph = netlist_to_graph(circuit, include_power_nets=True, with_stats=False)
        assert graph.has_node("VDD")

    def test_every_device_pin_edge_exists(self, pipeline):
        circuit, _, graph = pipeline
        device_pin_edges = int((graph.edge_types == EDGE_DEVICE_PIN).sum())
        assert device_pin_edges == sum(len(d.terminals) for d in circuit.devices)

    def test_net_pin_edges_only_for_signal_nets(self, pipeline):
        circuit, _, graph = pipeline
        expected = sum(
            1 for d in circuit.devices for _, net in d.terminal_items()
            if not Circuit.is_power_rail(net)
        )
        assert int((graph.edge_types == EDGE_NET_PIN).sum()) == expected

    def test_pin_nodes_named_device_colon_terminal(self, pipeline):
        circuit, _, graph = pipeline
        device = circuit.devices[0]
        terminal = next(iter(device.terminals))
        assert graph.has_node(f"{device.name}:{terminal}")

    def test_stats_matrix_attached(self, pipeline):
        _, _, graph = pipeline
        assert graph.node_stats is not None
        assert graph.node_stats.shape == (graph.num_nodes, 13)


class TestParasiticAttachment:
    def test_links_created_for_all_kinds(self, pipeline):
        _, report, graph = pipeline
        names = {LINK_TYPE_NAMES[l.link_type] for l in graph.links}
        assert names == {"net-net", "pin-net", "pin-pin"}

    def test_link_count_not_more_than_couplings(self, pipeline):
        _, report, graph = pipeline
        assert 0 < len(graph.links) <= len(report.couplings)

    def test_links_have_positive_capacitance(self, pipeline):
        _, _, graph = pipeline
        assert all(l.capacitance > 0 for l in graph.links)
        assert all(l.label == 1.0 for l in graph.links)

    def test_duplicate_couplings_merged(self, pipeline):
        _, _, graph = pipeline
        keys = [l.key() for l in graph.links]
        assert len(keys) == len(set(keys))

    def test_ground_caps_attached(self, pipeline):
        _, report, graph = pipeline
        assert graph.node_ground_caps is not None
        net = next(iter(report.net_ground_caps))
        assert graph.node_ground_caps[graph.node_index(net)] == pytest.approx(
            report.net_ground_caps[net])

    def test_no_self_links(self, pipeline):
        _, _, graph = pipeline
        assert all(l.source != l.target for l in graph.links)

    def test_hierarchical_input_flattened(self):
        graph = netlist_to_graph(ssram(rows=2, cols=2), with_stats=False)
        assert graph.num_nodes > 0


class TestNodeOrder:
    def test_nets_sorted_then_each_device_followed_by_its_pins(self):
        circuit = Circuit("order", ports=["z_port", "VDD"])
        circuit.add(Resistor("R2", {"N": "b", "P": "a"}))
        circuit.add(Mosfet("M1", {"G": "a", "D": "b", "S": "VSS", "B": "VSS"}))
        graph = netlist_to_graph(circuit)
        assert graph.node_names == ["a", "b", "z_port", "R2", "R2:N", "R2:P",
                                    "M1", "M1:G", "M1:D", "M1:S", "M1:B"]
        assert graph.node_types.tolist() == [NODE_NET] * 3 + [NODE_DEVICE] + [NODE_PIN] * 2 \
            + [NODE_DEVICE] + [NODE_PIN] * 4
        # Per terminal: device-pin, then net-pin unless the net is a dropped rail.
        assert graph.edge_index.T.tolist() == [
            [3, 4], [1, 4], [3, 5], [0, 5],
            [6, 7], [0, 7], [6, 8], [1, 8], [6, 9], [6, 10]]
        assert graph.edge_types.tolist() == [EDGE_DEVICE_PIN, EDGE_NET_PIN] * 4 \
            + [EDGE_DEVICE_PIN] * 2
        assert all(graph.node_index(name) == i for i, name in enumerate(graph.node_names))

    def test_name_index_is_handed_over_not_rebuilt(self):
        graph = netlist_to_graph(ssram(rows=2, cols=2))
        assert graph._name_to_index == {name: i for i, name in enumerate(graph.node_names)}

    def test_zero_devices(self):
        graph = netlist_to_graph(Circuit("empty", ports=["b", "a", "VSS"]))
        assert graph.node_names == ["a", "b"]
        assert graph.edge_index.shape == (2, 0) and graph.edge_index.dtype == np.int64
        assert graph.edge_types.shape == (0,) and graph.edge_types.dtype == np.int64
        assert graph.node_stats[:, 12].tolist() == [1.0, 1.0]
        graph.validate()


class TestUniqueNodeNames:
    def test_net_named_like_a_device_raises(self):
        circuit = Circuit("clash")
        circuit.add(Mosfet("M1", {"D": "a", "G": "b", "S": "VSS", "B": "VSS"}))
        circuit.add(Resistor("R1", {"P": "a", "N": "M1"}))
        with pytest.raises(ValueError, match=r"'M1' is taken by a net and again by a device"):
            netlist_to_graph(circuit)

    def test_two_devices_with_one_name_raise(self):
        # parse_spice rejects this itself; the builder's check covers
        # circuits built in code.
        circuit = Circuit("dup")
        circuit.add(Mosfet("M1", {"D": "a", "G": "b", "S": "VSS", "B": "VSS"}))
        circuit.add(Mosfet("M1", {"D": "c", "G": "d", "S": "VSS", "B": "VSS"},
                           polarity="pmos"))
        assert [device.name for device in circuit.devices] == ["M1", "M1"]
        with pytest.raises(ValueError,
                           match=r"'M1' is taken by a device and again by a device"):
            netlist_to_graph(circuit)

    def test_net_named_like_a_pin_raises(self):
        circuit = Circuit("clash")
        circuit.add(Resistor("R1", {"P": "R2:N", "N": "b"}))
        circuit.add(Resistor("R2", {"P": "b", "N": "c"}))
        with pytest.raises(ValueError, match=r"'R2:N' is taken by a net and again by a pin"):
            netlist_to_graph(circuit)

    def test_device_named_like_a_dropped_rail_is_fine_until_rails_are_kept(self):
        circuit = Circuit("rail")
        circuit.add(Resistor("VDD", {"P": "VDD", "N": "a"}))
        assert netlist_to_graph(circuit).has_node("VDD")
        with pytest.raises(ValueError, match=r"'VDD' is taken by a net and again by a device"):
            netlist_to_graph(circuit, include_power_nets=True)


FLAGS = [(False, False), (False, True), (True, False), (True, True)]


class TestParityWithLegacyBuilder:
    """The one-walk builder is byte-identical to the name-keyed ``add_node``
    builder on every input whose node names are unique."""

    @pytest.mark.parametrize("name", sorted(PAPER_DESIGNS))
    @pytest.mark.parametrize("scale", [0.2, 0.5, 1.0])
    def test_paper_designs(self, name, scale):
        flat = build_design(name, scale=scale).flatten()
        for include_power_nets, with_stats in FLAGS:
            assert_graphs_identical(
                netlist_to_graph(flat, include_power_nets=include_power_nets,
                                 with_stats=with_stats),
                legacy_netlist_to_graph(flat, include_power_nets=include_power_nets,
                                        with_stats=with_stats))

    def test_hierarchical_sram_direct_and_through_spice(self):
        chip = hierarchical_sram(banks=2, rows=2, cols=4)
        for circuit in (chip, parse_spice(write_spice(chip), name=chip.name)):
            for include_power_nets, with_stats in FLAGS:
                assert_graphs_identical(
                    netlist_to_graph(circuit, include_power_nets=include_power_nets,
                                     with_stats=with_stats),
                    legacy_netlist_to_graph(circuit, include_power_nets=include_power_nets,
                                            with_stats=with_stats))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_flat_circuits(self, data):
        circuit = data.draw(flat_circuits())
        include_power_nets, with_stats = data.draw(st.sampled_from(FLAGS))
        got = netlist_to_graph(circuit, include_power_nets=include_power_nets,
                               with_stats=with_stats)
        assert_graphs_identical(got, legacy_netlist_to_graph(
            circuit, include_power_nets=include_power_nets, with_stats=with_stats))
        got.validate()


# A few signal nets, every rail spelling, and ports that no device touches.
NETS = ["n0", "n1", "n2", "n3", "VDD", "vss", "gnd", "0", "vdd!"]
FLOATING = ["p0", "p1"]


@st.composite
def flat_circuits(draw):
    """Random flat circuits: mixed device kinds, rails, floating ports, one
    net on several terminals of a device, and possibly no devices at all."""
    net = st.sampled_from(NETS)
    size = st.floats(1e-8, 1e-5, allow_nan=False)
    count = st.integers(1, 8)
    circuit = Circuit("rand", ports=draw(st.lists(st.sampled_from(NETS + FLOATING),
                                                  unique=True, max_size=4)))
    for index, kind in enumerate(draw(st.lists(st.sampled_from("MRCD"), max_size=8))):
        terminals = draw(st.permutations("DGSB" if kind == "M" else "PN"))
        if kind == "M" and draw(st.booleans()):
            terminals = [*terminals, "X"]  # a terminal with no Table I pin code
        connections = {terminal: draw(net) for terminal in terminals}
        name = f"{kind}{index}"
        if kind == "M":
            device = Mosfet(name, connections, polarity=draw(st.sampled_from(["nmos", "pmos"])),
                            width=draw(size), length=draw(size), multiplier=draw(count),
                            fingers=draw(count))
        elif kind == "R":
            device = Resistor(name, connections, width=draw(size), length=draw(size),
                              multiplier=draw(count))
        elif kind == "C":
            device = Capacitor(name, connections, width=draw(size), length=draw(size),
                               fingers=draw(count), multiplier=draw(count))
        else:
            device = Diode(name, connections, multiplier=draw(count))
        circuit.add(device)
    return circuit
