"""Tests for device primitives."""

import copy
import dataclasses
import pickle

import pytest

from repro.netlist import Capacitor, Diode, Mosfet, Resistor, SubcktInstance
from repro.netlist.devices import DEVICE_TYPE_CODES, copy_device, seal_device


class TestMosfet:
    def test_construction_and_kind(self):
        m = Mosfet("M1", {"D": "out", "G": "in", "S": "vss", "B": "vss"}, polarity="nmos",
                   width=200e-9, length=30e-9)
        assert m.device_kind == "nmos"
        assert m.type_code == DEVICE_TYPE_CODES["nmos"]
        assert m.gate_area == pytest.approx(200e-9 * 30e-9)

    def test_pmos_type_code_differs(self):
        kwargs = dict(terminals={"D": "o", "G": "i", "S": "vdd", "B": "vdd"})
        assert Mosfet("M1", polarity="pmos", **kwargs).type_code != \
            Mosfet("M2", polarity="nmos", **kwargs).type_code

    def test_invalid_polarity_raises(self):
        with pytest.raises(ValueError):
            Mosfet("M1", {"D": "a", "G": "b", "S": "c", "B": "d"}, polarity="jfet")

    def test_missing_terminal_raises(self):
        with pytest.raises(ValueError):
            Mosfet("M1", {"D": "a", "G": "b", "S": "c"})

    def test_multiplier_scales_gate_area(self):
        m = Mosfet("M1", {"D": "a", "G": "b", "S": "c", "B": "d"}, width=1e-7, length=3e-8,
                   multiplier=4)
        assert m.gate_area == pytest.approx(4 * 1e-7 * 3e-8)

    def test_nets_and_terminal_items(self):
        m = Mosfet("M1", {"D": "out", "G": "in", "S": "vss", "B": "vss"})
        assert m.nets == ["out", "in", "vss", "vss"]
        assert ("G", "in") in m.terminal_items()


class TestPassives:
    def test_resistor(self):
        r = Resistor("R1", {"P": "a", "N": "b"}, resistance=2e3)
        assert r.device_kind == "resistor"
        assert r.resistance == 2e3

    def test_resistor_missing_terminal(self):
        with pytest.raises(ValueError):
            Resistor("R1", {"P": "a"})

    def test_capacitor(self):
        c = Capacitor("C1", {"P": "a", "N": "b"}, capacitance=5e-15, fingers=8)
        assert c.device_kind == "capacitor"
        assert c.fingers == 8

    def test_diode(self):
        d = Diode("D1", {"P": "a", "N": "b"}, area=2e-12)
        assert d.device_kind == "diode"
        assert d.type_code == DEVICE_TYPE_CODES["diode"]

    def test_subckt_instance(self):
        x = SubcktInstance("X1", {}, subckt_name="INV_X1", connections=["a", "y", "vdd", "vss"])
        assert x.device_kind == "subckt"
        assert x.connections == ["a", "y", "vdd", "vss"]


class TestCopyDevice:
    @pytest.mark.parametrize("device", [
        Mosfet("M1", {"D": "d", "G": "g", "S": "s", "B": "b"}, polarity="pmos",
               width=3e-7, multiplier=2),
        Resistor("R1", {"P": "a", "N": "b"}, resistance=2e3),
        Capacitor("C1", {"P": "a", "N": "b"}, fingers=8),
        Diode("D1", {"P": "a", "N": "b"}, area=2e-12),
        SubcktInstance("X1", {"A": "a"}, subckt_name="INV", connections=["a", "y"]),
    ], ids=lambda device: type(device).__name__)
    def test_equal_and_independent(self, device):
        clone = copy_device(device)
        assert type(clone) is type(device) and clone == device
        assert clone.terminals is not device.terminals
        clone.terminals["A"] = "moved"
        clone.name = "renamed"
        if isinstance(device, SubcktInstance):
            assert clone.connections is not device.connections
            clone.connections.append("extra")
            assert device.connections == ["a", "y"]
        assert device.name != "renamed" and device.terminals.get("A") != "moved"


PRIMITIVES = [
    Mosfet("M1", {"D": "d", "G": "g", "S": "s", "B": "b"}, polarity="pmos",
           width=3e-7, multiplier=2),
    Resistor("R1", {"P": "a", "N": "b"}, resistance=2e3),
    Capacitor("C1", {"P": "a", "N": "b"}, fingers=8),
    Diode("D1", {"P": "a", "N": "b"}, area=2e-12),
]


def assert_read_only(device):
    terminals = device.terminals
    for write in (lambda: terminals.__setitem__("P", "x"),
                  lambda: terminals.__delitem__("P"),
                  lambda: terminals.update(P="x"),
                  lambda: terminals.setdefault("Z", "x"),
                  lambda: terminals.pop("P"),
                  lambda: terminals.popitem(),
                  lambda: terminals.clear(),
                  lambda: terminals.__ior__({"P": "x"})):
        with pytest.raises(TypeError, match="read-only"):
            write()
    for field in dataclasses.fields(device):
        with pytest.raises(AttributeError, match="sealed"):
            setattr(device, field.name, getattr(device, field.name))
        with pytest.raises(AttributeError, match="sealed"):
            delattr(device, field.name)
    with pytest.raises(AttributeError, match="sealed"):
        device.__class__ = type(copy_device(device))


@pytest.mark.parametrize("device", PRIMITIVES, ids=lambda device: type(device).__name__)
class TestSealDevice:
    def test_rejects_every_write_and_leaves_the_original_writable(self, device):
        original = copy_device(device)
        sealed = seal_device(original)
        assert isinstance(sealed, type(device)) and type(sealed) is not type(device)
        assert sealed.terminals is not original.terminals
        assert_read_only(sealed)
        original.terminals["P"] = "moved"
        original.name = "renamed"
        assert sealed == device
        assert seal_device(sealed) is sealed

    def test_equals_its_unsealed_copy_in_both_directions(self, device):
        sealed = seal_device(device)
        assert sealed == device and device == sealed
        assert not (sealed != device) and not (device != sealed)
        other = copy_device(device)
        other.multiplier = 7
        assert sealed != other and other != sealed
        for different in PRIMITIVES:
            if type(different) is not type(device):
                assert sealed != different and different != sealed
                assert sealed != seal_device(different)
        with pytest.raises(TypeError):
            hash(sealed)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, copy_device],
                             ids=["copy", "deepcopy", "copy_device"])
    def test_copies_are_writable_and_independent(self, device, clone):
        sealed = seal_device(device)
        writable = clone(sealed)
        assert type(writable) is type(device) and type(writable.terminals) is dict
        assert writable == sealed
        writable.terminals["P"] = "moved"
        writable.name = "renamed"
        assert sealed == device

    def test_pickles_as_a_sealed_device(self, device):
        sealed = seal_device(device)
        restored = pickle.loads(pickle.dumps(sealed))
        assert type(restored) is type(sealed) and restored == device
        assert_read_only(restored)


def test_a_subckt_instance_cannot_be_sealed():
    with pytest.raises(TypeError, match="flatten"):
        seal_device(SubcktInstance("X1", {}, subckt_name="INV", connections=["a"]))
