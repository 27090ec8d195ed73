"""Test oracles for netlist-to-graph conversion.

``legacy_netlist_to_graph`` is the name-keyed ``add_node`` builder the
one-walk :func:`repro.graph.netlist_to_graph` replaced, and
``per_node_stats`` computes ``X_C`` one node at a time from the node names.
Both are deliberately slow and simple; the parity tests compare the
production builder against them byte for byte on inputs whose node names
are unique (the legacy builder silently merges repeated names).
"""

from __future__ import annotations

import numpy as np

from repro.graph import (EDGE_DEVICE_PIN, EDGE_NET_PIN, NODE_DEVICE, NODE_NET,
                         NODE_PIN, PIN_TYPE_CODES, STATS_DIM, CircuitGraph)
from repro.netlist import Capacitor, Circuit, Diode, Mosfet, Resistor

__all__ = ["legacy_netlist_to_graph", "per_node_stats", "assert_graphs_identical"]


def legacy_netlist_to_graph(circuit: Circuit, include_power_nets: bool = False,
                            with_stats: bool = True) -> CircuitGraph:
    """The ``add_node`` builder: nets, then devices and pins, deduped by name."""
    if not circuit.is_flat:
        circuit = circuit.flatten()

    node_names: list[str] = []
    node_types: list[int] = []
    index_of: dict[str, int] = {}

    def add_node(name: str, node_type: int) -> int:
        if name in index_of:
            return index_of[name]
        index_of[name] = len(node_names)
        node_names.append(name)
        node_types.append(node_type)
        return index_of[name]

    for net in circuit.nets:
        if not include_power_nets and Circuit.is_power_rail(net):
            continue
        add_node(net, NODE_NET)

    sources: list[int] = []
    targets: list[int] = []
    edge_types: list[int] = []
    for device in circuit.devices:
        device_idx = add_node(device.name, NODE_DEVICE)
        for terminal, net in device.terminal_items():
            pin_idx = add_node(f"{device.name}:{terminal}", NODE_PIN)
            sources.append(device_idx)
            targets.append(pin_idx)
            edge_types.append(EDGE_DEVICE_PIN)
            if not include_power_nets and Circuit.is_power_rail(net):
                continue
            net_idx = index_of.get(net)
            if net_idx is None:
                net_idx = add_node(net, NODE_NET)
            sources.append(net_idx)
            targets.append(pin_idx)
            edge_types.append(EDGE_NET_PIN)

    types = np.array(node_types, dtype=np.int64)
    graph = CircuitGraph(
        name=circuit.name,
        node_types=types,
        node_names=node_names,
        edge_index=(np.array([sources, targets], dtype=np.int64) if sources
                    else np.zeros((2, 0), dtype=np.int64)),
        edge_types=np.array(edge_types, dtype=np.int64),
    )
    if with_stats:
        graph.node_stats = per_node_stats(circuit, node_names, types)
    return graph


def per_node_stats(circuit: Circuit, node_names, node_types) -> np.ndarray:
    """``X_C`` one node at a time, each net summing its devices in circuit
    order, each pin's code parsed back out of its ``device:terminal`` name."""
    net_devices = circuit.net_devices()
    device_by_name = {device.name: device for device in circuit.devices}
    stats = np.zeros((len(node_names), STATS_DIM))
    for index, (name, node_type) in enumerate(zip(node_names, node_types)):
        row = stats[index]
        if node_type == NODE_NET:
            for device in net_devices.get(name, []):
                if isinstance(device, Mosfet):
                    terminals = [t for t, n in device.terminal_items() if n == name]
                    row[0] += 1
                    row[1] += sum(1 for t in terminals if t == "G")
                    row[2] += sum(1 for t in terminals if t in ("S", "D"))
                    row[3] += sum(1 for t in terminals if t == "B")
                    row[4] += device.width * device.multiplier * 1e6
                    row[5] += device.length * device.multiplier * 1e6
                elif isinstance(device, Capacitor):
                    row[6] += 1
                    row[7] += device.length * 1e6
                    row[8] += device.fingers
                elif isinstance(device, Resistor):
                    row[9] += 1
                    row[10] += device.width * 1e6
                    row[11] += device.length * 1e6
            row[12] = 1.0 if name in circuit.ports else 0.0
        elif node_type == NODE_DEVICE:
            device = device_by_name[name]
            if isinstance(device, Mosfet):
                row[0:3] = device.multiplier, device.length * 1e6, device.width * 1e6
            elif isinstance(device, Resistor):
                row[3:6] = device.multiplier, device.length * 1e6, device.width * 1e6
            elif isinstance(device, Capacitor):
                row[6:9] = device.multiplier, device.length * 1e6, device.fingers
            elif isinstance(device, Diode):
                row[0] = device.multiplier
            row[9] = len(device.terminals)
            row[10] = device.type_code
        else:
            row[0] = PIN_TYPE_CODES.get(name.split(":", 1)[1], len(PIN_TYPE_CODES))
    return stats


def assert_graphs_identical(got: CircuitGraph, want: CircuitGraph) -> None:
    """Byte-for-byte equality of every array the builders produce."""
    assert got.name == want.name
    assert got.node_names == want.node_names
    for field in ("node_types", "edge_index", "edge_types"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
    if want.node_stats is None:
        assert got.node_stats is None
    else:
        assert got.node_stats.dtype == want.node_stats.dtype
        assert got.node_stats.shape == want.node_stats.shape
        assert got.node_stats.tobytes() == want.node_stats.tobytes()
