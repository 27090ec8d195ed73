"""Tests for Circuit containers, hierarchy flattening and statistics."""

import pytest

from repro.netlist import Circuit, Mosfet, Resistor, Subckt, SubcktInstance, parse_spice


def _inverter_subckt(name="INV"):
    cell = Subckt(name=name, ports=["A", "Y", "VDD", "VSS"])
    cell.add(Mosfet("MP1", {"D": "Y", "G": "A", "S": "VDD", "B": "VDD"}, polarity="pmos"))
    cell.add(Mosfet("MN1", {"D": "Y", "G": "A", "S": "VSS", "B": "VSS"}, polarity="nmos"))
    return cell


class TestCircuitBasics:
    def test_nets_collects_all_names(self):
        circuit = Circuit("top", ports=["in", "out"])
        circuit.add(Resistor("R1", {"P": "in", "N": "out"}))
        assert circuit.nets == ["in", "out"]

    def test_net_devices_mapping(self):
        circuit = Circuit("top")
        r1 = circuit.add(Resistor("R1", {"P": "a", "N": "b"}))
        r2 = circuit.add(Resistor("R2", {"P": "b", "N": "c"}))
        mapping = circuit.net_devices()
        assert mapping["b"] == [r1, r2]
        assert mapping["a"] == [r1]

    def test_duplicate_subckt_definition_raises(self):
        circuit = Circuit("top")
        circuit.define_subckt(_inverter_subckt())
        with pytest.raises(ValueError):
            circuit.define_subckt(_inverter_subckt())

    def test_power_rail_detection(self):
        assert Circuit.is_ground("VSS")
        assert Circuit.is_ground("0")
        assert Circuit.is_supply("vdd")
        assert Circuit.is_power_rail("VDD")
        assert not Circuit.is_power_rail("data0")


class TestFlatten:
    def _hierarchical(self):
        circuit = Circuit("top", ports=["in", "out", "VDD", "VSS"])
        circuit.define_subckt(_inverter_subckt())
        buffer = Subckt(name="BUF", ports=["A", "Y", "VDD", "VSS"])
        buffer.add(SubcktInstance("XI1", {}, subckt_name="INV",
                                  connections=["A", "mid", "VDD", "VSS"]))
        buffer.add(SubcktInstance("XI2", {}, subckt_name="INV",
                                  connections=["mid", "Y", "VDD", "VSS"]))
        circuit.define_subckt(buffer)
        circuit.add(SubcktInstance("XB1", {}, subckt_name="BUF",
                                   connections=["in", "out", "VDD", "VSS"]))
        return circuit

    def test_flatten_counts_devices(self):
        flat = self._hierarchical().flatten()
        assert flat.is_flat
        assert len(flat.devices) == 4  # two inverters, two transistors each

    def test_flatten_uniquifies_names_and_nets(self):
        flat = self._hierarchical().flatten()
        names = {d.name for d in flat.devices}
        assert "XB1/XI1/MP1" in names
        nets = set(flat.nets)
        assert "XB1/mid" in nets          # internal net got a hierarchical name
        assert "in" in nets and "out" in nets  # ports are preserved

    def test_flatten_keeps_global_rails(self):
        flat = self._hierarchical().flatten()
        assert "VDD" in flat.nets and "VSS" in flat.nets
        assert not any(net.endswith("/VDD") for net in flat.nets)

    def test_unknown_subckt_raises(self):
        circuit = Circuit("top")
        circuit.add(SubcktInstance("X1", {}, subckt_name="MISSING", connections=["a"]))
        with pytest.raises(ValueError, match="instance 'X1' references unknown subckt 'MISSING'"):
            circuit.flatten()

    def test_port_count_mismatch_raises(self):
        circuit = Circuit("top")
        circuit.define_subckt(_inverter_subckt())
        circuit.add(SubcktInstance("X1", {}, subckt_name="INV", connections=["a", "y"]))
        with pytest.raises(ValueError):
            circuit.flatten()

    def test_self_instantiating_subckt_names_the_cycle(self):
        """Regression: a subckt instantiating itself recursed until RecursionError."""
        circuit = parse_spice(".subckt LOOP a b\nX1 a b LOOP\n.ends\nX0 n1 n2 LOOP\n.end\n")
        with pytest.raises(ValueError, match=r"X0 \(LOOP\) -> X0/X1 \(LOOP\)"):
            circuit.flatten()

    def test_two_level_subckt_cycle_names_the_cycle(self):
        circuit = parse_spice(".subckt A a b\nXB a b B\n.ends\n"
                              ".subckt B a b\nXA a b A\n.ends\n"
                              "X0 n1 n2 A\n.end\n")
        with pytest.raises(ValueError, match=r"X0 \(A\) -> X0/XB \(B\) -> X0/XB/XA \(A\)"):
            circuit.flatten()

    def test_repeated_subckt_in_sibling_branches_is_not_a_cycle(self):
        flat = self._hierarchical().flatten()  # BUF instantiates INV twice
        assert len(flat.devices) == 4

    def test_flattened_devices_share_no_mutable_state(self):
        circuit = self._hierarchical()
        circuit.add(Resistor("R1", {"P": "in", "N": "out"}))
        flat = circuit.flatten()
        sources = circuit.devices + [device for subckt in circuit.subckts.values()
                                     for device in subckt.devices + subckt.instances]
        terminal_maps = [device.terminals for device in flat.devices]
        assert len({id(m) for m in terminal_maps}) == len(terminal_maps)
        assert not {id(m) for m in terminal_maps} & {id(d.terminals) for d in sources}
        assert not {id(d) for d in flat.devices} & {id(d) for d in sources}
        before = [(d.name, dict(d.terminals)) for d in sources]
        for device in flat.devices:
            device.terminals["D" if "D" in device.terminals else "P"] = "moved"
            device.name = "renamed"
        assert [(d.name, dict(d.terminals)) for d in sources] == before

    def test_stats_of_flattened_circuit(self):
        stats = self._hierarchical().stats()
        assert stats.num_devices == 4
        assert stats.num_mosfets == 4
        assert stats.num_pins == 16
        assert stats.num_resistors == 0
        assert stats.as_dict()["num_devices"] == 4


class TestStatsCaching:
    """Regression: ``stats`` used to re-flatten the full hierarchy per call."""

    @staticmethod
    def _counting(circuit, monkeypatch):
        calls = {"flatten": 0}
        original = Circuit.flatten

        def counted(self, separator="/"):
            calls["flatten"] += 1
            return original(self, separator)

        monkeypatch.setattr(Circuit, "flatten", counted)
        return calls

    def _hierarchical(self):
        circuit = Circuit("top", ports=["in", "out"])
        circuit.define_subckt(_inverter_subckt())
        circuit.add(SubcktInstance("XB1", {}, subckt_name="INV",
                                   connections=["in", "mid", "VDD", "VSS"]))
        circuit.add(SubcktInstance("XB2", {}, subckt_name="INV",
                                   connections=["mid", "out", "VDD", "VSS"]))
        return circuit

    def test_repeated_stats_flatten_once(self, monkeypatch):
        circuit = self._hierarchical()
        calls = self._counting(circuit, monkeypatch)
        first = circuit.stats()
        for _ in range(5):
            assert circuit.stats() is first
        assert calls["flatten"] == 1

    def test_top_level_mutation_invalidates_the_cache(self, monkeypatch):
        circuit = self._hierarchical()
        calls = self._counting(circuit, monkeypatch)
        before = circuit.stats()
        circuit.add(Resistor("R1", {"P": "in", "N": "out"}))
        after = circuit.stats()
        assert calls["flatten"] == 2
        assert after.num_devices == before.num_devices + 1
        assert after.num_resistors == before.num_resistors + 1

    def test_subckt_body_mutation_invalidates_the_cache(self, monkeypatch):
        circuit = self._hierarchical()
        calls = self._counting(circuit, monkeypatch)
        before = circuit.stats()
        # In-place edit of a *definition*: both instances grow a device.
        circuit.subckts["INV"].add(
            Resistor("RLOAD", {"P": "Y", "N": "VSS"}))
        after = circuit.stats()
        assert calls["flatten"] == 2
        assert after.num_devices == before.num_devices + 2

    def test_flat_circuit_stats_do_not_flatten(self, monkeypatch):
        circuit = Circuit("flat")
        circuit.add(Resistor("R1", {"P": "a", "N": "b"}))
        calls = self._counting(circuit, monkeypatch)
        assert circuit.stats().num_devices == 1
        assert calls["flatten"] == 0
