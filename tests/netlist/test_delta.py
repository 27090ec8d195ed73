"""Tests for ECO-style netlist deltas (:class:`repro.netlist.NetlistDelta`)."""

import pytest

from repro.netlist import Circuit, NetlistDelta, Resistor, SubcktInstance
from repro.netlist.devices import Capacitor


def _flat_circuit() -> Circuit:
    circuit = Circuit("FLAT", ports=["a", "c"])
    circuit.add(Resistor("R1", {"P": "a", "N": "b"}, resistance=1e3))
    circuit.add(Resistor("R2", {"P": "b", "N": "c"}, resistance=2e3))
    circuit.add(Capacitor("C1", {"P": "c", "N": "VSS"}, capacitance=1e-15))
    return circuit


class TestValidation:
    def test_rejects_subckt_instance_additions(self):
        with pytest.raises(ValueError, match="subckt instance"):
            NetlistDelta(add_devices=[SubcktInstance("X1", {}, subckt_name="INV",
                                                     connections=["a"])])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetlistDelta(remove_devices=["R1", "R1"])
        with pytest.raises(ValueError, match="duplicate"):
            NetlistDelta(add_devices=[Resistor("R9", {"P": "a", "N": "b"}),
                                      Resistor("R9", {"P": "b", "N": "c"})])

    def test_empty_and_counts(self):
        assert NetlistDelta().is_empty
        delta = NetlistDelta(add_devices=[Resistor("R9", {"P": "a", "N": "b"})],
                             remove_devices=["R1"])
        assert not delta.is_empty
        assert delta.num_changes == 2


class TestApply:
    def test_apply_keeps_replacements_in_their_slots_and_appends_new_names(self):
        """A replacement (remove + add of one name) takes the removed device's
        slot, a plain removal drops out, and new names append in delta order."""
        delta = NetlistDelta(add_devices=[Resistor("R9", {"P": "c", "N": "d"}),
                                          Capacitor("C1", {"P": "b", "N": "VSS"}),
                                          Resistor("R8", {"P": "d", "N": "a"})],
                             remove_devices=["C1", "R2"])
        result = delta.apply(_flat_circuit())
        assert [d.name for d in result.devices] == ["R1", "C1", "R9", "R8"]
        assert result.devices[1].terminals["P"] == "b"
        assert "d" in result.nets and "c" in result.nets
        # Chained: the index the first revision carries places the next edit.
        edit = Resistor("R9", {"P": "a", "N": "d"})
        again = NetlistDelta(add_devices=[edit], remove_devices=["R1", "R9"]).apply(result)
        assert [d.name for d in again.devices] == ["C1", "R9", "R8"]
        assert again.devices[1] == edit

    def test_apply_does_not_mutate_the_input(self):
        circuit = _flat_circuit()
        NetlistDelta(remove_devices=["R1"]).apply(circuit)
        assert [d.name for d in circuit.devices] == ["R1", "R2", "C1"]

    def test_applied_devices_are_sealed_and_the_inputs_stay_writable(self):
        """A revision's devices reject every write, so later revisions can
        share them; the input circuit and the delta's own devices are
        neither changed nor sealed."""
        circuit = _flat_circuit()
        added = Resistor("R9", {"P": "c", "N": "d"})
        result = NetlistDelta(add_devices=[added]).apply(circuit)
        assert result.devices == circuit.devices + [added]
        for device in result.devices:
            with pytest.raises(TypeError, match="read-only"):
                device.terminals["P"] = "moved"
            with pytest.raises(AttributeError, match="sealed"):
                device.resistance = 0.0
            with pytest.raises(AttributeError, match="sealed"):
                device.name = "renamed"
        assert [d.terminals["P"] for d in result.devices] == ["a", "b", "c", "c"]
        inputs = circuit.devices + [added]
        assert [d.terminals["P"] for d in inputs] == ["a", "b", "c", "c"]
        assert circuit.devices[0].resistance == 1e3
        for device in inputs:
            device.terminals["P"] = "moved"
            device.name = "renamed"
        assert [d.terminals["P"] for d in result.devices] == ["a", "b", "c", "c"]
        assert [d.name for d in result.devices] == ["R1", "R2", "C1", "R9"]

    def test_a_revision_shares_its_untouched_devices(self):
        first = NetlistDelta(remove_devices=["C1"]).apply(_flat_circuit())
        edit = Resistor("R2", {"P": "b", "N": "c"}, resistance=9e3)
        second = NetlistDelta(add_devices=[edit], remove_devices=["R2"]).apply(first)
        assert second.devices[0] is first.devices[0]
        (r2,) = [d for d in second.devices if d.name == "R2"]
        assert r2 == edit and r2 is not edit

    def test_editing_a_revision_device_list_drops_its_index(self):
        """Every in-place edit of a revision's device list makes the next
        apply walk the list again, so its name index is never stale."""
        def revision():
            return NetlistDelta(remove_devices=["C1"]).apply(_flat_circuit())

        edited = revision()
        edited.devices.append(Resistor("RX", {"P": "a", "N": "b"}))
        with pytest.raises(ValueError, match="already exist"):
            NetlistDelta(add_devices=[Resistor("RX", {"P": "b", "N": "c"})]).apply(edited)
        result = NetlistDelta(remove_devices=["R1"]).apply(edited)
        assert [d.name for d in result.devices] == ["R2", "RX"]
        with pytest.raises(AttributeError, match="sealed"):
            result.devices[1].name = "renamed"

        edited = revision()
        edited.devices[0] = Resistor("RY", {"P": "a", "N": "b"})
        with pytest.raises(KeyError, match="R1"):
            NetlistDelta(remove_devices=["R1"]).apply(edited)
        edit = Resistor("RY", {"P": "a", "N": "c"})
        result = NetlistDelta(add_devices=[edit], remove_devices=["RY"]).apply(edited)
        assert [d.name for d in result.devices] == ["RY", "R2"]
        assert result.devices[0] == edit

        for change in (lambda devices: devices.reverse(), lambda devices: devices.pop(0),
                       lambda devices: devices.insert(0, Capacitor("C7", {"P": "a", "N": "b"}))):
            edited = revision()
            change(edited.devices)
            names = [d.name for d in edited.devices]
            edit = Resistor("R2", {"P": "c", "N": "b"})
            result = NetlistDelta(add_devices=[edit], remove_devices=["R2"]).apply(edited)
            assert [d.name for d in result.devices] == names
            assert result.devices[names.index("R2")] == edit

    def test_a_copy_or_pickle_of_a_revision_list_is_a_plain_list(self):
        import copy
        import pickle

        result = NetlistDelta(remove_devices=["C1"]).apply(_flat_circuit())
        for clone in (copy.copy(result.devices), copy.deepcopy(result.devices),
                      pickle.loads(pickle.dumps(result.devices))):
            assert type(clone) is list
            assert clone == result.devices

    def test_apply_rejects_a_circuit_with_two_devices_of_one_name(self):
        circuit = _flat_circuit()
        circuit.add(Resistor("R1", {"P": "b", "N": "c"}))
        with pytest.raises(ValueError, match="two devices of one name"):
            NetlistDelta(remove_devices=["R2"]).apply(circuit)

    def test_apply_unknown_removal_raises(self):
        with pytest.raises(KeyError, match="RMISSING"):
            NetlistDelta(remove_devices=["RMISSING"]).apply(_flat_circuit())

    def test_apply_colliding_addition_raises(self):
        delta = NetlistDelta(add_devices=[Resistor("R2", {"P": "a", "N": "b"})])
        with pytest.raises(ValueError, match="already exist"):
            delta.apply(_flat_circuit())

    def test_edit_is_remove_plus_add_of_the_same_name(self):
        delta = NetlistDelta(
            add_devices=[Resistor("R2", {"P": "b", "N": "c"}, resistance=9e3)],
            remove_devices=["R2"])
        result = delta.apply(_flat_circuit())
        (r2,) = [d for d in result.devices if d.name == "R2"]
        assert r2.resistance == 9e3


class TestTouchedNets:
    def test_covers_removed_and_added_device_nets(self):
        delta = NetlistDelta(add_devices=[Resistor("R9", {"P": "x", "N": "y"})],
                             remove_devices=["R1"])
        assert delta.touched_nets(_flat_circuit()) == {"a", "b", "x", "y"}


class TestBetween:
    def test_between_recovers_adds_removes_and_edits(self):
        old = _flat_circuit()
        new = _flat_circuit()
        new.devices = [d for d in new.devices if d.name != "C1"]  # removal
        new.add(Resistor("R9", {"P": "c", "N": "d"}))             # addition
        new.devices[0].resistance = 5e3                           # edit of R1
        delta = NetlistDelta.between(old, new)
        assert sorted(delta.remove_devices) == ["C1", "R1"]
        assert sorted(d.name for d in delta.add_devices) == ["R1", "R9"]
        replayed = delta.apply(old)
        assert {d.name for d in replayed.devices} == {"R1", "R2", "R9"}
        (r1,) = [d for d in replayed.devices if d.name == "R1"]
        assert r1.resistance == 5e3

    def test_between_identical_revisions_is_empty(self):
        assert NetlistDelta.between(_flat_circuit(), _flat_circuit()).is_empty

    def test_a_revision_diffs_empty_against_its_spice_round_trip(self):
        """Sealed devices equal the parser's plain ones.  The base is parsed
        once first, so names carry their card letter and every value is one
        the SPICE text reproduces exactly."""
        import copy

        from repro.netlist import hierarchical_sram, parse_spice, write_spice

        base = parse_spice(write_spice(hierarchical_sram(banks=1, rows=2, cols=2).flatten()))
        victim = base.devices[3]
        edited = copy.deepcopy(victim)
        edited.multiplier = 3
        revision = NetlistDelta(add_devices=[edited], remove_devices=[victim.name]).apply(base)
        parsed = parse_spice(write_spice(revision))
        assert NetlistDelta.between(revision, parsed).is_empty
        assert NetlistDelta.between(parsed, revision).is_empty
        assert not NetlistDelta.between(base, parsed).is_empty

    def test_between_rejects_a_port_change(self):
        """A dropped port changes the graph's port statistics, which no
        device-level delta can express: it must not diff to an empty delta."""
        new = _flat_circuit()
        new.ports = ["a"]
        with pytest.raises(ValueError, match=r"port list changed from \['a', 'c'\] to \['a'\]"):
            NetlistDelta.between(_flat_circuit(), new)

    def test_between_flattens_hierarchy_first(self):
        from repro.netlist import Subckt

        def hierarchical(extra: bool) -> Circuit:
            circuit = Circuit("H", ports=["in"])
            cell = Subckt("CELL", ports=["p"])
            cell.add(Resistor("R1", {"P": "p", "N": "mid"}))
            if extra:
                cell.add(Capacitor("C1", {"P": "mid", "N": "VSS"},
                                   capacitance=2e-15))
            circuit.define_subckt(cell)
            circuit.add(SubcktInstance("X1", {}, subckt_name="CELL",
                                       connections=["in"]))
            return circuit

        delta = NetlistDelta.between(hierarchical(False), hierarchical(True))
        assert delta.remove_devices == []
        assert [d.name for d in delta.add_devices] == ["X1/C1"]
