"""Tests for the SPICE parser and writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    Capacitor,
    Mosfet,
    Resistor,
    build_design,
    parse_si_value,
    parse_spice,
    write_spice,
)
from repro.netlist.spice import format_si_value


class TestSiValues:
    @pytest.mark.parametrize("text,expected", [
        ("1", 1.0),
        ("0.1u", 1e-7),
        ("30n", 3e-8),
        ("5f", 5e-15),
        ("2k", 2e3),
        ("3meg", 3e6),
        ("1.5p", 1.5e-12),
        ("-2m", -2e-3),
        ("1e-15", 1e-15),
        ("100nF", 1e-7),
    ])
    def test_parse(self, text, expected):
        assert parse_si_value(text) == pytest.approx(expected)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            parse_si_value("abc")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-18, max_value=1e12, allow_nan=False, allow_infinity=False))
    def test_format_parse_roundtrip(self, value):
        assert parse_si_value(format_si_value(value)) == pytest.approx(value, rel=1e-4)

    def test_format_zero(self):
        assert format_si_value(0) == "0"


class TestParsing:
    NETLIST = """
* example buffer
.subckt INV A Y VDD VSS
MP1 Y A VDD VDD pch W=0.4u L=0.03u
MN1 Y A VSS VSS nch W=0.1u L=0.03u
.ends
X1 in mid VDD VSS INV
X2 mid out VDD VSS INV
R1 out n1 1k W=200n L=1u
C1 n1 0 5f NF=8
D1 n1 VSS dio AREA=1e-12
.end
"""

    def test_devices_and_subckts(self):
        circuit = parse_spice(self.NETLIST, name="buffer")
        assert set(circuit.subckts) == {"INV"}
        assert len(circuit.instances) == 2
        kinds = {type(d) for d in circuit.devices}
        assert kinds == {Resistor, Capacitor} | {type(circuit.devices[-1])}

    def test_mosfet_parameters(self):
        circuit = parse_spice(self.NETLIST)
        inv = circuit.subckts["INV"]
        pmos = next(d for d in inv.devices if isinstance(d, Mosfet) and d.polarity == "pmos")
        assert pmos.width == pytest.approx(0.4e-6)
        assert pmos.length == pytest.approx(0.03e-6)

    def test_flattening_parsed_netlist(self):
        circuit = parse_spice(self.NETLIST)
        flat = circuit.flatten()
        assert len(flat.devices) == 2 * 2 + 3
        assert any(name.startswith("X1/") for name in [d.name for d in flat.devices])

    def test_continuation_lines(self):
        text = "M1 d g s b nch\n+ W=0.2u L=0.03u\n.end\n"
        circuit = parse_spice(text)
        assert circuit.devices[0].width == pytest.approx(0.2e-6)

    def test_comments_ignored(self):
        text = "* a comment\nR1 a b 1k $ trailing comment\n.end\n"
        circuit = parse_spice(text)
        assert len(circuit.devices) == 1

    def test_unterminated_subckt_raises(self):
        with pytest.raises(ValueError):
            parse_spice(".subckt FOO a b\nR1 a b 1k\n")

    def test_malformed_mos_raises(self):
        with pytest.raises(ValueError):
            parse_spice("M1 d g s nch\n.end\n")

    def test_unknown_cards_ignored(self):
        circuit = parse_spice("V1 vdd 0 1.0\nR1 a b 1k\n.option foo\n.end\n")
        assert len(circuit.devices) == 1

    def test_duplicate_device_name_raises_with_both_lines(self):
        with pytest.raises(ValueError, match=r"'M1' in the top level: line 2 "
                                             r"repeats the device of line 1"):
            parse_spice("M1 a b VSS VSS nch\nM1 c d VSS VSS pch\n.end\n")

    def test_duplicate_in_one_subckt_counts_physical_lines(self):
        text = ("* header\n.subckt INV A Y VDD VSS\nMP1 Y A VDD VDD pch\n"
                "+ W=0.4u\n\nMP1 Y A VSS VSS nch\n.ends\n.end\n")
        with pytest.raises(ValueError, match=r"'MP1' in .subckt 'INV': line 6 "
                                             r"repeats the device of line 3"):
            parse_spice(text)

    def test_one_name_in_different_scopes_is_legal(self):
        text = (".subckt A x y\nR1 x y 1k\n.ends\n"
                ".subckt B x y\nR1 x y 2k\n.ends\n"
                "R1 n1 n2 3k\nX1 n1 n2 A\nX2 n2 n3 B\n.end\n")
        circuit = parse_spice(text)
        assert [d.name for d in circuit.subckts["A"].devices] == ["R1"]
        assert [d.name for d in circuit.subckts["B"].devices] == ["R1"]
        assert [d.name for d in circuit.devices] == ["R1"]
        assert len(circuit.flatten().devices) == 3


class TestRoundTrip:
    def test_write_then_parse_preserves_structure(self):
        design = build_design("TIMING_CONTROL", scale=0.4)
        text = write_spice(design)
        parsed = parse_spice(text, name=design.name)
        assert len(parsed.flatten().devices) == len(design.flatten().devices)
        assert set(parsed.subckts) == set(design.subckts)

    def test_roundtrip_preserves_mos_geometry(self):
        """Writing a *flattened* circuit and reading it back keeps transistor sizing.

        Flattened device names gain a leading type letter in the SPICE text
        (``XC0_0/MPU1`` -> ``MXC0_0/MPU1``), so names are compared modulo that
        prefix while geometry must match exactly.
        """
        design = build_design("SSRAM", scale=0.3).flatten()
        parsed = parse_spice(write_spice(design)).flatten()
        original = sorted((d.name.lstrip("M"), d.width, d.polarity) for d in design.devices
                          if isinstance(d, Mosfet))
        recovered = sorted((d.name.lstrip("M"), d.width, d.polarity) for d in parsed.devices
                           if isinstance(d, Mosfet))
        assert len(original) == len(recovered)
        for (name_a, width_a, pol_a), (name_b, width_b, pol_b) in zip(original, recovered):
            assert name_a == name_b
            assert pol_a == pol_b
            assert width_a == pytest.approx(width_b, rel=1e-4)
