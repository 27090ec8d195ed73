"""AMS netlist substrate: devices, circuits, SPICE/SPF IO, layout and parasitics.

This package replaces the proprietary design-data pipeline of the paper: it
can generate synthetic SRAM/AMS designs, write and parse SPICE netlists,
produce a procedural placement, extract coupling/ground capacitances and
serialise them as simplified SPF — giving the graph-learning pipeline the same
inputs (schematic netlist + post-layout parasitics) the authors used.
"""

from .cells import standard_cell_library
from .circuit import Circuit, CircuitStats, Subckt
from .delta import NetlistDelta
from .devices import (
    Capacitor,
    Device,
    Diode,
    Mosfet,
    Resistor,
    SubcktInstance,
)
from .generators import (
    PAPER_DESIGNS,
    TEST_DESIGNS,
    TRAIN_DESIGNS,
    DesignSpec,
    build_design,
    digital_clk_gen,
    hierarchical_sram,
    sandwich_ram,
    sram_array,
    ssram,
    timing_control,
    ultra8t,
)
from .layout import NetBox, PinLocation, Placement, place_circuit
from .parasitics import CouplingCap, ParasiticReport, extract_parasitics
from .pdk import TECH_28NM, Technology
from .spf import parse_spf, parse_spf_file, write_spf
from .spice import (
    format_si_value,
    parse_si_value,
    parse_spice,
    parse_spice_file,
    write_spice,
)

__all__ = [
    "Circuit",
    "CircuitStats",
    "Subckt",
    "NetlistDelta",
    "Device",
    "Mosfet",
    "Resistor",
    "Capacitor",
    "Diode",
    "SubcktInstance",
    "standard_cell_library",
    "Technology",
    "TECH_28NM",
    "Placement",
    "PinLocation",
    "NetBox",
    "place_circuit",
    "ParasiticReport",
    "CouplingCap",
    "extract_parasitics",
    "parse_spice",
    "parse_spice_file",
    "write_spice",
    "parse_si_value",
    "format_si_value",
    "parse_spf",
    "parse_spf_file",
    "write_spf",
    "build_design",
    "PAPER_DESIGNS",
    "TRAIN_DESIGNS",
    "TEST_DESIGNS",
    "DesignSpec",
    "hierarchical_sram",
    "ssram",
    "ultra8t",
    "sandwich_ram",
    "digital_clk_gen",
    "timing_control",
    "sram_array",
]
