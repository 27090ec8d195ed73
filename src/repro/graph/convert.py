"""Netlist-to-graph conversion (step 1 of the CircuitGPS workflow, Fig. 2).

The flat schematic netlist becomes a heterogeneous graph:

* one **net** node per signal net (power/ground rails are dropped, as is
  standard in parasitic-prediction GNNs — they would otherwise be hub nodes
  connecting most of the design and blow up every enclosing subgraph),
* one **device** node per primitive device,
* one **pin** node per device terminal,
* a **device-pin** edge between a device and each of its pins,
* a **net-pin** edge between a pin and the net it connects to.

Ground-truth coupling capacitances from a :class:`ParasiticReport` (or an SPF
file) are attached as :class:`~repro.graph.hetero.Link` records with the link
types pin-net / pin-pin / net-net, and per-node ground capacitances are stored
for the node-regression task of Section IV-D.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.parasitics import NET, PIN, ParasiticReport
from .features import _kind, _node_stats
from .hetero import (
    EDGE_DEVICE_PIN,
    EDGE_NET_PIN,
    LINK_NET_NET,
    LINK_PIN_NET,
    LINK_PIN_PIN,
    NODE_DEVICE,
    NODE_NET,
    NODE_PIN,
    NODE_TYPE_NAMES,
    CircuitGraph,
    Link,
)

__all__ = ["netlist_to_graph", "attach_parasitics"]


def netlist_to_graph(circuit: Circuit, parasitics: ParasiticReport | None = None,
                     include_power_nets: bool = False,
                     with_stats: bool = True) -> CircuitGraph:
    """Convert a (flat) circuit into a heterogeneous :class:`CircuitGraph`.

    Hierarchical circuits are flattened first.  Node order is a contract:

    * the net nodes come first, sorted by name (power rails are left out
      unless ``include_power_nets``);
    * then each device of ``circuit.devices``, in order, directly followed
      by one pin node per terminal, in declaration order;
    * per terminal, its device-pin edge comes first, then its net-pin edge
      (none when the net is a dropped rail).

    Every node name (net name, device name, ``device:terminal``) must be
    unique: a net named like a device, or two devices sharing a name,
    raises :class:`ValueError` naming the colliding name and both roles.

    One walk over ``circuit.devices`` collects the columns the structure and
    the Table I statistics ``X_C`` (``with_stats``) are both computed from.
    """
    if not circuit.is_flat:
        circuit = circuit.flatten()
    devices = circuit.devices

    device_names: list[str] = []
    counts: list[int] = []
    terminal_names: list[str] = []
    terminal_nets: list[str] = []
    kinds: list[int] = []
    geometry: list[tuple] = []
    for device in devices:
        name = device.name
        terminals = device.terminals
        device_names.append(name)
        device_names.extend([f"{name}:{terminal}" for terminal in terminals])
        counts.append(len(terminals))
        terminal_names.extend(terminals)
        terminal_nets.extend(terminals.values())
        if with_stats:
            kinds.append(_kind(device))
            geometry.append((getattr(device, "multiplier", 0), getattr(device, "length", 0.0),
                             getattr(device, "width", 0.0), getattr(device, "fingers", 0),
                             device.type_code))

    # Power rails are classified once per distinct net, not per terminal.
    nets = sorted(set(circuit.ports).union(terminal_nets))
    if not include_power_nets:
        nets = [net for net in nets if not Circuit.is_power_rail(net)]
    net_row = dict(zip(nets, range(len(nets))))
    node_names = nets + device_names
    num_nets, num_nodes = len(nets), len(node_names)

    # Node ids by arithmetic: each device row is followed by its pin rows.
    counts_arr = np.array(counts, dtype=np.int64)
    terminal_device = np.repeat(np.arange(len(devices), dtype=np.int64), counts_arr)
    device_rows = num_nets + np.arange(len(devices), dtype=np.int64) \
        + np.cumsum(counts_arr) - counts_arr
    pin_rows = num_nets + np.arange(len(terminal_nets), dtype=np.int64) + terminal_device + 1
    terminal_rows = np.fromiter(map(net_row.get, terminal_nets, repeat(-1)),
                                dtype=np.int64, count=len(terminal_nets))
    node_types = np.full(num_nodes, NODE_PIN, dtype=np.int64)
    node_types[:num_nets] = NODE_NET
    node_types[device_rows] = NODE_DEVICE

    index_of = dict(zip(node_names, range(num_nodes)))
    if len(index_of) != num_nodes:
        _raise_name_collision(node_names, node_types)

    # Per terminal: (device, pin), then (net, pin) unless the net was dropped.
    keep = np.stack([np.ones(len(terminal_nets), dtype=bool), terminal_rows >= 0], axis=1)
    sources = np.stack([device_rows[terminal_device], terminal_rows], axis=1)[keep]
    targets = np.stack([pin_rows, pin_rows], axis=1)[keep]
    edge_types = np.broadcast_to(np.array([EDGE_DEVICE_PIN, EDGE_NET_PIN], dtype=np.int64),
                                 keep.shape)[keep]

    graph = CircuitGraph(
        name=circuit.name,
        node_types=node_types,
        node_names=node_names,
        edge_index=np.stack([sources, targets]),
        edge_types=edge_types,
        _name_to_index=index_of,
    )

    if with_stats:
        port_rows = [net_row[port] for port in set(circuit.ports) if port in net_row]
        graph.node_stats = _node_stats(
            num_nodes, np.array(kinds, dtype=np.int64), geometry, counts_arr, device_rows,
            terminal_names, terminal_device, terminal_rows, pin_rows, port_rows)

    if parasitics is not None:
        attach_parasitics(graph, parasitics)
    return graph


def _raise_name_collision(node_names: list[str], node_types: np.ndarray) -> None:
    """Raise the :class:`ValueError` for the first node name seen twice."""
    first: dict[str, int] = {}
    for index, name in enumerate(node_names):
        if name in first:
            roles = (NODE_TYPE_NAMES[int(node_types[first[name]])],
                     NODE_TYPE_NAMES[int(node_types[index])])
            raise ValueError(
                f"node name {name!r} is taken by a {roles[0]} and again by a {roles[1]}; "
                "net, device and device:terminal pin names must be unique in the flat "
                "circuit"
            )
        first[name] = index


def _link_type(kind_a: str, kind_b: str) -> int:
    kinds = tuple(sorted((kind_a, kind_b)))
    if kinds == (NET, NET):
        return LINK_NET_NET
    if kinds == (NET, PIN):
        return LINK_PIN_NET
    if kinds == (PIN, PIN):
        return LINK_PIN_PIN
    raise ValueError(f"unknown coupling kinds {kinds}")


def attach_parasitics(graph: CircuitGraph, parasitics: ParasiticReport) -> CircuitGraph:
    """Attach coupling links and per-node ground capacitances to ``graph``.

    Couplings that reference nodes absent from the graph (for instance nets
    dropped because they are power rails) are skipped.  Duplicate couplings
    between the same node pair are merged by summing their capacitances.
    """
    merged: dict[tuple[int, int], tuple[int, float]] = {}
    for coupling in parasitics.couplings:
        if not (graph.has_node(coupling.name_a) and graph.has_node(coupling.name_b)):
            continue
        a = graph.node_index(coupling.name_a)
        b = graph.node_index(coupling.name_b)
        if a == b:
            continue
        key = (a, b) if a <= b else (b, a)
        link_type = _link_type(coupling.kind_a, coupling.kind_b)
        if key in merged:
            link_type, value = merged[key][0], merged[key][1] + coupling.value
            merged[key] = (link_type, value)
        else:
            merged[key] = (link_type, coupling.value)

    graph.links = [
        Link(source=a, target=b, link_type=link_type, label=1.0, capacitance=value)
        for (a, b), (link_type, value) in sorted(merged.items())
    ]

    ground = np.zeros(graph.num_nodes)
    for net, value in parasitics.net_ground_caps.items():
        if graph.has_node(net):
            ground[graph.node_index(net)] = value
    for (device, terminal), value in parasitics.pin_ground_caps.items():
        pin_name = f"{device}:{terminal}"
        if graph.has_node(pin_name):
            ground[graph.node_index(pin_name)] = value
    graph.node_ground_caps = ground
    return graph
