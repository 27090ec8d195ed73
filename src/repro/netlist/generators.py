"""Synthetic AMS design generators reproducing the paper's dataset archetypes.

The paper trains on three proprietary 28nm designs (SSRAM, ULTRA8T,
SANDWICH-RAM) and tests zero-shot on three more (DIGITAL_CLK_GEN,
TIMING_CONTROL, ARRAY_128_32).  These netlists cannot be redistributed, so
this module procedurally generates open designs of the same *kind*:

* ``ssram``            – an SRAM macro (6T array, decoders, sense amps, write
                         drivers, control flip-flops and IO buffers) mixed
                         with standard digital cells, mirroring [23].
* ``ultra8t``          – an 8T sub-threshold SRAM with analog leakage-detection
                         circuitry (comparators, current mirrors, bias
                         resistors, decoupling caps), mirroring [29].
* ``sandwich_ram``     – SRAM banks interleaved with digital compute slices
                         (XOR/NAND adder chains), mirroring the in-memory
                         computing structure of [30].
* ``digital_clk_gen``  – internal clock generator: delay line, pulse
                         generator, clock tree and SRAM replica columns.
* ``timing_control``   – standard-cell control-signal generator (DFF pipeline
                         plus decode logic).
* ``array_128_32``     – a bare SRAM array with precharge and column mux.

Every generator returns a hierarchical :class:`~repro.netlist.circuit.Circuit`
built from the transistor-level cell library in :mod:`repro.netlist.cells`.
Sizes are parameters; the defaults are scaled down from the paper so the full
pipeline runs on a laptop CPU, and ``scale`` lets benchmarks shrink them
further.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import standard_cell_library
from .circuit import Circuit, Subckt
from .devices import SubcktInstance

__all__ = [
    "hierarchical_sram",
    "sram_array",
    "ssram",
    "ultra8t",
    "sandwich_ram",
    "digital_clk_gen",
    "timing_control",
    "DesignSpec",
    "PAPER_DESIGNS",
    "TRAIN_DESIGNS",
    "TEST_DESIGNS",
    "build_design",
]


def _new_circuit(name: str, ports: list[str]) -> Circuit:
    circuit = Circuit(name, ports=ports)
    for cell in standard_cell_library().values():
        circuit.define_subckt(cell)
    return circuit


def _inst(circuit: Circuit, name: str, cell: str, connections: list[str]) -> SubcktInstance:
    instance = SubcktInstance(name=name, terminals={}, subckt_name=cell,
                              connections=list(connections))
    circuit.add(instance)
    return instance


def _add_row_decoder(circuit: Circuit, prefix: str, rows: int, enable: str,
                     address_nets: list[str], wl_prefix: str = "WL") -> None:
    """Word-line decoder: per-row NAND of address phases plus a WL driver."""
    for row in range(rows):
        select = f"{prefix}_sel{row}"
        a = address_nets[row % len(address_nets)]
        b = address_nets[(row // len(address_nets)) % len(address_nets)]
        _inst(circuit, f"X{prefix}_dec{row}", "NAND2_X1", [a, b, f"{prefix}_n{row}", "VDD", "VSS"])
        _inst(circuit, f"X{prefix}_deci{row}", "INV_X1",
              [f"{prefix}_n{row}", select, "VDD", "VSS"])
        _inst(circuit, f"X{prefix}_wld{row}", "WLDRV",
              [enable, select, f"{wl_prefix}{row}", "VDD", "VSS"])


def _add_column_periphery(circuit: Circuit, prefix: str, cols: int, bl_prefix: str = "BL",
                          blb_prefix: str = "BLB", with_sense_amps: bool = True,
                          with_write_drivers: bool = True) -> None:
    """Precharge, sense amplifier and write driver for each column."""
    for col in range(cols):
        bl = f"{bl_prefix}{col}"
        blb = f"{blb_prefix}{col}"
        _inst(circuit, f"X{prefix}_pch{col}", "PRECH", [bl, blb, "PCHB", "VDD", "VSS"])
        if with_sense_amps:
            _inst(circuit, f"X{prefix}_sa{col}", "SA",
                  [bl, blb, "SAE", f"DOUT{col}", f"DOUTB{col}", "VDD", "VSS"])
        if with_write_drivers:
            _inst(circuit, f"X{prefix}_wd{col}", "WDRV",
                  [f"DIN{col}", "WEN", bl, blb, "VDD", "VSS"])


def sram_array(rows: int = 32, cols: int = 8, cell: str = "6t",
               name: str = "ARRAY", with_periphery: bool = True) -> Circuit:
    """A rows x cols SRAM array with optional column periphery."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    ports = ["VDD", "VSS", "PCHB", "SAE", "WEN"] + [f"DIN{c}" for c in range(cols)]
    circuit = _new_circuit(name, ports)
    cell_name = "SRAM6T" if cell == "6t" else "SRAM8T"
    for row in range(rows):
        for col in range(cols):
            if cell == "6t":
                nets = [f"BL{col}", f"BLB{col}", f"WL{row}", "VDD", "VSS"]
            else:
                nets = [f"WBL{col}", f"WBLB{col}", f"WWL{row}", f"RBL{col}", f"RWL{row}",
                        "VDD", "VSS"]
            _inst(circuit, f"XC{row}_{col}", cell_name, nets)
    if with_periphery:
        bl_prefix = "BL" if cell == "6t" else "WBL"
        blb_prefix = "BLB" if cell == "6t" else "WBLB"
        _add_column_periphery(circuit, "col", cols, bl_prefix, blb_prefix)
    return circuit


def _bank_subckt(rows: int, cols: int, abits: int) -> Subckt:
    """One self-contained SRAM bank: array, gated row decoder, column IO.

    The bank is a :class:`Subckt` so chip-level designs can instantiate it
    many times while the netlist stays compact — flattening multiplies the
    device count by the bank count, which is exactly the memory cliff the
    sharded annotation path is designed to sidestep.
    """
    ports = ["VDD", "VSS", "BSEL", "PCHB", "SAE", "WEN"] \
        + [f"AB{i}" for i in range(abits)] \
        + [f"DIN{c}" for c in range(cols)] + [f"Q{c}" for c in range(cols)]
    bank = Subckt(name="HSRAM_BANK", ports=ports)
    for row in range(rows):
        for col in range(cols):
            _inst(bank, f"XC{row}_{col}", "SRAM6T",
                  [f"BL{col}", f"BLB{col}", f"WL{row}", "VDD", "VSS"])
    _inst(bank, "XEN", "BUF_X2", ["BSEL", "row_en", "VDD", "VSS"])
    _add_row_decoder(bank, "dec", rows, "row_en", [f"AB{i}" for i in range(abits)])
    _add_column_periphery(bank, "col", cols)
    for col in range(cols):
        _inst(bank, f"XQB{col}", "BUF_X2", [f"DOUT{col}", f"Q{col}", "VDD", "VSS"])
    return bank


def hierarchical_sram(banks: int = 4, rows: int = 16, cols: int = 8,
                      name: str = "HSRAM") -> Circuit:
    """AMC-style banked SRAM compiler output: a chip built from bank macros.

    Mirrors the structure an open SRAM compiler emits: one transistor-level
    bank sub-circuit (array + decoder + periphery) instantiated ``banks``
    times under a bank-select decoder, with shared address/data registers and
    control pulse generation at the top.  Unlike the other generators, the
    returned circuit keeps *deep* hierarchy (top -> bank -> library cell), so
    its flat device count is ``banks`` times the bank size while the
    hierarchical description stays small.  This is the stress shape for
    :meth:`repro.core.AnnotationEngine.annotate_sharded`: shard planning runs
    on the compact hierarchy and each worker flattens only its own banks.
    """
    if banks < 1 or rows < 1 or cols < 1:
        raise ValueError("banks, rows and cols must be positive")
    abits = 4
    bbits = max(1, (banks - 1).bit_length())
    ports = ["VDD", "VSS", "CLK", "CEN", "WEN_IN"] \
        + [f"A{i}" for i in range(abits + bbits)] + [f"D{i}" for i in range(cols)]
    circuit = _new_circuit(name, ports)
    circuit.define_subckt(_bank_subckt(rows, cols, abits))

    # Address pipeline: low bits go to every bank, high bits select the bank.
    row_address, bank_address = [], []
    for i in range(abits + bbits):
        _inst(circuit, f"XAREG{i}", "DFF_X1", [f"A{i}", "CLK", f"ai{i}", "VDD", "VSS"])
        _inst(circuit, f"XABUF{i}", "BUF_X2", [f"ai{i}", f"ab{i}", "VDD", "VSS"])
        (row_address if i < abits else bank_address).append(f"ab{i}")

    # Bank-select decoder: NAND/INV per bank, gated by chip enable.
    _inst(circuit, "XCEN", "INV_X1", ["CEN", "cen_n", "VDD", "VSS"])
    for b in range(banks):
        a = bank_address[b % len(bank_address)]
        bsel = bank_address[(b // len(bank_address)) % len(bank_address)]
        _inst(circuit, f"XBDEC{b}", "NAND2_X1", [a, bsel, f"bdec_n{b}", "VDD", "VSS"])
        _inst(circuit, f"XBDECI{b}", "NOR2_X1",
              [f"bdec_n{b}", "cen_n", f"bsel{b}", "VDD", "VSS"])

    # Shared data-in registers and write/precharge/sense pulse generation.
    for col in range(cols):
        _inst(circuit, f"XDREG{col}", "DFF_X1", [f"D{col}", "CLK", f"din{col}", "VDD", "VSS"])
    _inst(circuit, "XWENR", "DFF_X1", ["WEN_IN", "CLK", "wen_q", "VDD", "VSS"])
    _inst(circuit, "XWENB", "BUF_X2", ["wen_q", "wen", "VDD", "VSS"])
    _inst(circuit, "XPG1", "INV_X1", ["CLK", "pg1", "VDD", "VSS"])
    _inst(circuit, "XPG2", "NAND2_X1", ["CLK", "pg1", "pchb_pre", "VDD", "VSS"])
    _inst(circuit, "XPG3", "BUF_X8", ["pchb_pre", "pchb", "VDD", "VSS"])
    _inst(circuit, "XSAE1", "NOR2_X1", ["pg1", "wen_q", "sae_pre", "VDD", "VSS"])
    _inst(circuit, "XSAE2", "BUF_X2", ["sae_pre", "sae", "VDD", "VSS"])

    # The banks themselves, plus a per-column XOR reduce of the bank outputs
    # (stand-in for the read mux an SRAM compiler would emit).  Control,
    # address and data-in are re-buffered per bank — as a compiler does for
    # drive strength — so the shared pulse/bus nets fan out to one buffer per
    # bank and each bank macro sees only its private copies.  This keeps the
    # top-level connectivity local: shard planning can carve out a few banks
    # without every shared net dragging in all the others.
    for b in range(banks):
        for sig in ("pchb", "sae", "wen"):
            _inst(circuit, f"X{sig.upper()}B{b}", "BUF_X2",
                  [sig, f"{sig}_b{b}", "VDD", "VSS"])
        for i, net in enumerate(row_address):
            _inst(circuit, f"XABB{b}_{i}", "BUF_X2",
                  [net, f"{net}_b{b}", "VDD", "VSS"])
        for c in range(cols):
            _inst(circuit, f"XDBB{b}_{c}", "BUF_X2",
                  [f"din{c}", f"din{c}_b{b}", "VDD", "VSS"])
        _inst(circuit, f"XBANK{b}", "HSRAM_BANK",
              ["VDD", "VSS", f"bsel{b}", f"pchb_b{b}", f"sae_b{b}", f"wen_b{b}"]
              + [f"{net}_b{b}" for net in row_address]
              + [f"din{c}_b{b}" for c in range(cols)]
              + [f"q{b}_{c}" for c in range(cols)])
    for col in range(cols):
        previous = "VSS"
        for b in range(banks):
            _inst(circuit, f"XRD{b}_{col}", "XOR2_X1",
                  [previous, f"q{b}_{col}", f"rd{b}_{col}", "VDD", "VSS"])
            previous = f"rd{b}_{col}"
        _inst(circuit, f"XQREG{col}", "DFF_X1", [previous, "CLK", f"Q{col}", "VDD", "VSS"])
    for i in range(4):
        _inst(circuit, f"XDC{i}", "DECAP", ["VDD", "VSS"])
    return circuit


def ssram(rows: int = 16, cols: int = 8, name: str = "SSRAM") -> Circuit:
    """Small energy-efficient SRAM macro with digital control (train design #1)."""
    ports = ["VDD", "VSS", "CLK", "CEN", "WEN_IN"] + [f"A{i}" for i in range(4)] \
        + [f"D{i}" for i in range(cols)]
    circuit = _new_circuit(name, ports)

    # Core array.
    for row in range(rows):
        for col in range(cols):
            _inst(circuit, f"XC{row}_{col}", "SRAM6T",
                  [f"BL{col}", f"BLB{col}", f"WL{row}", "VDD", "VSS"])

    # Address pipeline registers and buffers.
    address_nets = []
    for i in range(4):
        _inst(circuit, f"XAREG{i}", "DFF_X1", [f"A{i}", "CLK", f"ai{i}", "VDD", "VSS"])
        _inst(circuit, f"XABUF{i}", "BUF_X2", [f"ai{i}", f"ab{i}", "VDD", "VSS"])
        address_nets.append(f"ab{i}")

    # Row decoder and word-line drivers.
    _add_row_decoder(circuit, "rdec", rows, "row_en", address_nets)

    # Column periphery.
    _add_column_periphery(circuit, "col", cols)

    # Data-in registers.
    for col in range(cols):
        _inst(circuit, f"XDREG{col}", "DFF_X1", [f"D{col}", "CLK", f"DIN{col}", "VDD", "VSS"])
        _inst(circuit, f"XQBUF{col}", "BUF_X2", [f"DOUT{col}", f"Q{col}", "VDD", "VSS"])

    # Control logic (timing-speculation flavour of [23]): clock gating + pulses.
    _inst(circuit, "XCG1", "NAND2_X1", ["CLK", "CEN", "clkb_int", "VDD", "VSS"])
    _inst(circuit, "XCG2", "INV_X4", ["clkb_int", "clk_int", "VDD", "VSS"])
    _inst(circuit, "XWENR", "DFF_X1", ["WEN_IN", "clk_int", "wen_q", "VDD", "VSS"])
    _inst(circuit, "XWENB", "BUF_X2", ["wen_q", "WEN", "VDD", "VSS"])
    _inst(circuit, "XPG1", "INV_X1", ["clk_int", "pg1", "VDD", "VSS"])
    _inst(circuit, "XPG2", "INV_X1", ["pg1", "pg2", "VDD", "VSS"])
    _inst(circuit, "XPG3", "NAND2_X1", ["clk_int", "pg2", "pchb_pre", "VDD", "VSS"])
    _inst(circuit, "XPG4", "BUF_X8", ["pchb_pre", "PCHB", "VDD", "VSS"])
    _inst(circuit, "XSAE1", "NOR2_X1", ["pg1", "wen_q", "sae_pre", "VDD", "VSS"])
    _inst(circuit, "XSAE2", "BUF_X2", ["sae_pre", "SAE", "VDD", "VSS"])
    _inst(circuit, "XREN", "NOR2_X1", ["CEN", "pg2", "row_en", "VDD", "VSS"])

    # Supply decoupling.
    for i in range(4):
        _inst(circuit, f"XDC{i}", "DECAP", ["VDD", "VSS"])
    return circuit


def ultra8t(rows: int = 16, cols: int = 8, name: str = "ULTRA8T") -> Circuit:
    """Sub-threshold 8T SRAM with analog leakage detection (train design #2)."""
    ports = ["VDD", "VDDL", "VSS", "CLK", "WEN_IN"] + [f"A{i}" for i in range(4)] \
        + [f"D{i}" for i in range(cols)]
    circuit = _new_circuit(name, ports)

    # 8T core array.
    for row in range(rows):
        for col in range(cols):
            _inst(circuit, f"XC{row}_{col}", "SRAM8T",
                  [f"WBL{col}", f"WBLB{col}", f"WWL{row}", f"RBL{col}", f"RWL{row}",
                   "VDD", "VSS"])

    # Write and read row decoders.
    address_nets = []
    for i in range(4):
        _inst(circuit, f"XAREG{i}", "DFF_X1", [f"A{i}", "CLK", f"ai{i}", "VDD", "VSS"])
        address_nets.append(f"ai{i}")
    _add_row_decoder(circuit, "wdec", rows, "wrow_en", address_nets, wl_prefix="WWL")
    _add_row_decoder(circuit, "rdec", rows, "rrow_en", address_nets, wl_prefix="RWL")

    # Write columns and read sense path.
    for col in range(cols):
        _inst(circuit, f"Xwd{col}", "WDRV", [f"D{col}", "WEN", f"WBL{col}", f"WBLB{col}",
                                             "VDD", "VSS"])
        _inst(circuit, f"Xpch{col}", "PRECH", [f"RBL{col}", f"RBLREF{col}", "PCHB",
                                               "VDD", "VSS"])
        _inst(circuit, f"Xsa{col}", "SA", [f"RBL{col}", f"RBLREF{col}", "SAE",
                                           f"DOUT{col}", f"DOUTB{col}", "VDD", "VSS"])

    # Analog leakage detector: bias mirror, per-column comparators, RC filter.
    _inst(circuit, "XBIAS", "CMIRR", ["ibias_in", "vbias", "VSS"])
    for col in range(cols):
        _inst(circuit, f"XLCMP{col}", "COMP",
              [f"RBL{col}", "vref_leak", "vbias", f"leak{col}", "VDDL", "VSS"])
    from .devices import Capacitor, Resistor

    circuit.add(Resistor("RREF1", {"P": "VDDL", "N": "vref_leak"}, resistance=50e3,
                         width=400e-9, length=8e-6))
    circuit.add(Resistor("RREF2", {"P": "vref_leak", "N": "VSS"}, resistance=50e3,
                         width=400e-9, length=8e-6))
    circuit.add(Capacitor("CREF", {"P": "vref_leak", "N": "VSS"}, capacitance=100e-15,
                          fingers=24, width=2e-6, length=4e-6))
    circuit.add(Resistor("RBIAS", {"P": "VDD", "N": "ibias_in"}, resistance=120e3,
                         width=400e-9, length=10e-6))

    # Control pulses, level shifters between VDD and VDDL domains.
    _inst(circuit, "XWENR", "DFF_X1", ["WEN_IN", "CLK", "wen_q", "VDD", "VSS"])
    _inst(circuit, "XWENB", "BUF_X2", ["wen_q", "WEN", "VDD", "VSS"])
    _inst(circuit, "XPG1", "INV_X1", ["CLK", "pg1", "VDD", "VSS"])
    _inst(circuit, "XPG2", "NAND2_X1", ["CLK", "pg1", "pchb_pre", "VDD", "VSS"])
    _inst(circuit, "XPG3", "BUF_X8", ["pchb_pre", "PCHB", "VDD", "VSS"])
    _inst(circuit, "XSAE", "NOR2_X1", ["pg1", "wen_q", "SAE", "VDD", "VSS"])
    _inst(circuit, "XREN1", "INV_X1", ["wen_q", "rrow_en", "VDD", "VSS"])
    _inst(circuit, "XREN2", "BUF_X2", ["wen_q", "wrow_en", "VDD", "VSS"])
    for i in range(6):
        _inst(circuit, f"XDC{i}", "DECAP", ["VDDL" if i % 2 else "VDD", "VSS"])
    return circuit


def sandwich_ram(rows: int = 16, cols: int = 8, slices: int = 4,
                 name: str = "SANDWICH_RAM") -> Circuit:
    """In-memory computing macro: SRAM banks sandwiching digital compute slices."""
    ports = ["VDD", "VSS", "CLK"] + [f"W{i}" for i in range(slices)]
    circuit = _new_circuit(name, ports)

    # Two SRAM banks (top and bottom of the sandwich).
    for bank in range(2):
        for row in range(rows):
            for col in range(cols):
                _inst(circuit, f"XB{bank}C{row}_{col}", "SRAM6T",
                      [f"B{bank}BL{col}", f"B{bank}BLB{col}", f"B{bank}WL{row}",
                       "VDD", "VSS"])
        _add_column_periphery(circuit, f"b{bank}col", cols,
                              bl_prefix=f"B{bank}BL", blb_prefix=f"B{bank}BLB",
                              with_write_drivers=(bank == 0))
        address_nets = [f"ck{(i + bank) % 4}" for i in range(4)]
        _add_row_decoder(circuit, f"b{bank}dec", rows, f"b{bank}_en", address_nets,
                         wl_prefix=f"B{bank}WL")

    # Clock phases used by the decoders above.
    _inst(circuit, "XCK0", "BUF_X2", ["CLK", "ck0", "VDD", "VSS"])
    for i in range(3):
        _inst(circuit, f"XCK{i + 1}", "INV_X1", [f"ck{i}", f"ck{i + 1}", "VDD", "VSS"])

    # Compute slices: bit-wise multiply (NAND) + accumulate (XOR chain) + register,
    # the pulse-width-modulation flavour of the BWN accelerator.
    for s in range(slices):
        previous = "VSS"
        for col in range(cols):
            _inst(circuit, f"XS{s}_mul{col}", "NAND2_X1",
                  [f"DOUT{col}" if s == 0 else f"b0col_q{col}", f"W{s}",
                   f"s{s}_p{col}", "VDD", "VSS"])
            _inst(circuit, f"XS{s}_acc{col}", "XOR2_X1",
                  [previous, f"s{s}_p{col}", f"s{s}_sum{col}", "VDD", "VSS"])
            previous = f"s{s}_sum{col}"
        _inst(circuit, f"XS{s}_reg", "DFF_X1", [previous, "ck0", f"s{s}_out", "VDD", "VSS"])
        _inst(circuit, f"XS{s}_buf", "BUF_X2", [f"s{s}_out", f"MAC{s}", "VDD", "VSS"])

    for i in range(4):
        _inst(circuit, f"XDC{i}", "DECAP", ["VDD", "VSS"])
    return circuit


def digital_clk_gen(delay_stages: int = 12, replica_rows: int = 8, tree_fanout: int = 6,
                    name: str = "DIGITAL_CLK_GEN") -> Circuit:
    """Internal SRAM clock generator (test design #1, the hardest case).

    Structure: input clock buffer -> programmable delay line -> pulse generator
    (NAND of delayed and undelayed clock) -> clock-tree buffers, plus SRAM
    replica columns that emulate the bit-line delay being tracked.
    """
    ports = ["VDD", "VSS", "CLK_IN", "EN"] + [f"SEL{i}" for i in range(2)]
    circuit = _new_circuit(name, ports)

    _inst(circuit, "XIN", "BUF_X2", ["CLK_IN", "clk_b0", "VDD", "VSS"])

    # Delay line with mux taps.
    previous = "clk_b0"
    for stage in range(delay_stages):
        out = f"dly{stage}"
        cell = "BUF_X2" if stage % 3 else "INV_X4"
        if cell == "INV_X4":
            _inst(circuit, f"XDL{stage}", cell, [previous, out, "VDD", "VSS"])
        else:
            _inst(circuit, f"XDL{stage}", cell, [previous, out, "VDD", "VSS"])
        previous = out
    _inst(circuit, "XMUX0", "MUX2_X1",
          [f"dly{delay_stages // 2}", f"dly{delay_stages - 1}", "SEL0", "dly_sel0",
           "VDD", "VSS"])
    _inst(circuit, "XMUX1", "MUX2_X1",
          [f"dly{delay_stages // 3}", "dly_sel0", "SEL1", "dly_out", "VDD", "VSS"])

    # Pulse generator.
    _inst(circuit, "XPINV", "INV_X1", ["dly_out", "dly_n", "VDD", "VSS"])
    _inst(circuit, "XPNAND", "NAND2_X1", ["clk_b0", "dly_n", "pulse_n", "VDD", "VSS"])
    _inst(circuit, "XPEN", "NAND2_X1", ["pulse_n", "EN", "pulse", "VDD", "VSS"])

    # Clock tree.
    _inst(circuit, "XROOT", "BUF_X8", ["pulse", "clk_root", "VDD", "VSS"])
    for leaf in range(tree_fanout):
        _inst(circuit, f"XTREE{leaf}", "BUF_X2", ["clk_root", f"clk_leaf{leaf}", "VDD", "VSS"])

    # SRAM replica columns tracking bit-line delay.
    for col in range(2):
        for row in range(replica_rows):
            _inst(circuit, f"XRC{col}_{row}", "SRAM6T",
                  [f"RBL{col}", f"RBLB{col}", f"RWL{col}_{row}", "VDD", "VSS"])
        _inst(circuit, f"XRPCH{col}", "PRECH", [f"RBL{col}", f"RBLB{col}", "clk_leaf0",
                                                "VDD", "VSS"])
        _inst(circuit, f"XRWL{col}", "WLDRV", ["EN", f"clk_leaf{col + 1}", f"RWL{col}_0",
                                               "VDD", "VSS"])
        _inst(circuit, f"XRSENSE{col}", "INV_X4", [f"RBL{col}", f"rdone{col}", "VDD", "VSS"])
    _inst(circuit, "XDONE", "NAND2_X1", ["rdone0", "rdone1", "clk_reset_n", "VDD", "VSS"])
    _inst(circuit, "XRSTB", "BUF_X2", ["clk_reset_n", "clk_reset", "VDD", "VSS"])
    for i in range(2):
        _inst(circuit, f"XDC{i}", "DECAP", ["VDD", "VSS"])
    return circuit


def timing_control(num_outputs: int = 8, pipeline_depth: int = 4,
                   name: str = "TIMING_CONTROL") -> Circuit:
    """Standard-cell control-signal generator for an SRAM macro (test design #2)."""
    ports = ["VDD", "VSS", "CLK", "CEN", "WEN"] + [f"A{i}" for i in range(3)]
    circuit = _new_circuit(name, ports)

    # Input registers.
    registered = []
    for i, port in enumerate(["CEN", "WEN", "A0", "A1", "A2"]):
        _inst(circuit, f"XIR{i}", "DFF_X1", [port, "CLK", f"r_{port.lower()}", "VDD", "VSS"])
        registered.append(f"r_{port.lower()}")

    # Decode logic producing control phases.
    for out in range(num_outputs):
        a = registered[out % len(registered)]
        b = registered[(out + 1) % len(registered)]
        c = registered[(out + 2) % len(registered)]
        _inst(circuit, f"XD{out}_1", "NAND2_X1", [a, b, f"d{out}_1", "VDD", "VSS"])
        _inst(circuit, f"XD{out}_2", "NOR2_X1", [f"d{out}_1", c, f"d{out}_2", "VDD", "VSS"])
        _inst(circuit, f"XD{out}_3", "INV_X1", [f"d{out}_2", f"d{out}_3", "VDD", "VSS"])
        # Pipeline the decoded phase.
        previous = f"d{out}_3"
        for stage in range(pipeline_depth):
            _inst(circuit, f"XP{out}_{stage}", "DFF_X1",
                  [previous, "CLK", f"p{out}_{stage}", "VDD", "VSS"])
            previous = f"p{out}_{stage}"
        _inst(circuit, f"XOB{out}", "BUF_X8", [previous, f"CTRL{out}", "VDD", "VSS"])

    # Clock buffering.
    _inst(circuit, "XCKB0", "BUF_X8", ["CLK", "clk_buf", "VDD", "VSS"])
    _inst(circuit, "XCKB1", "BUF_X2", ["clk_buf", "clk_local", "VDD", "VSS"])
    return circuit


# --------------------------------------------------------------------------- #
# Paper design suite
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DesignSpec:
    """Recipe for one of the six paper designs at a given scale."""

    name: str
    split: str  # "train" or "test"
    builder: str
    kwargs: dict


PAPER_DESIGNS: dict[str, DesignSpec] = {
    "SSRAM": DesignSpec("SSRAM", "train", "ssram", {"rows": 16, "cols": 8}),
    "ULTRA8T": DesignSpec("ULTRA8T", "train", "ultra8t", {"rows": 16, "cols": 8}),
    "SANDWICH_RAM": DesignSpec("SANDWICH_RAM", "train", "sandwich_ram",
                               {"rows": 12, "cols": 8, "slices": 4}),
    "DIGITAL_CLK_GEN": DesignSpec("DIGITAL_CLK_GEN", "test", "digital_clk_gen",
                                  {"delay_stages": 12, "replica_rows": 8}),
    "TIMING_CONTROL": DesignSpec("TIMING_CONTROL", "test", "timing_control",
                                 {"num_outputs": 8, "pipeline_depth": 4}),
    "ARRAY_128_32": DesignSpec("ARRAY_128_32", "test", "sram_array",
                               {"rows": 32, "cols": 8, "cell": "6t", "name": "ARRAY_128_32"}),
}

TRAIN_DESIGNS = [spec.name for spec in PAPER_DESIGNS.values() if spec.split == "train"]
TEST_DESIGNS = [spec.name for spec in PAPER_DESIGNS.values() if spec.split == "test"]

_BUILDERS = {
    "ssram": ssram,
    "ultra8t": ultra8t,
    "sandwich_ram": sandwich_ram,
    "digital_clk_gen": digital_clk_gen,
    "timing_control": timing_control,
    "sram_array": sram_array,
}


def build_design(name: str, scale: float = 1.0) -> Circuit:
    """Build one of the paper's designs, optionally scaled down.

    ``scale`` multiplies the row/column/stage counts (values below 1 shrink the
    design); the result is clamped so every design keeps at least a minimal
    functional structure.
    """
    if name not in PAPER_DESIGNS:
        raise KeyError(f"unknown design {name!r}; available: {sorted(PAPER_DESIGNS)}")
    spec = PAPER_DESIGNS[name]
    kwargs = dict(spec.kwargs)
    for key, value in list(kwargs.items()):
        if isinstance(value, int) and key not in ("cell",):
            kwargs[key] = max(2, int(round(value * scale)))
        elif isinstance(value, str):
            kwargs[key] = value
    builder = _BUILDERS[spec.builder]
    circuit = builder(**kwargs)
    circuit.name = name
    return circuit
