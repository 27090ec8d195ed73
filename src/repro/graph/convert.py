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

:func:`patch_graph` turns the graph of one circuit revision into the graph of
the next (an ECO :class:`~repro.netlist.NetlistDelta`) without re-walking the
devices the edit leaves alone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.delta import NetlistDelta
from ..netlist.parasitics import NET, PIN, ParasiticReport
from .csr import _ragged_flat
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

__all__ = ["netlist_to_graph", "patch_graph", "attach_parasitics"]


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
    :func:`patch_graph` derives the graph of an edited circuit from this one.
    """
    if not circuit.is_flat:
        circuit = circuit.flatten()
    block = _DeviceBlock.walk(circuit.devices, with_stats)

    # Power rails are classified once per distinct net, not per terminal.
    nets = sorted(set(circuit.ports).union(block.terminal_nets))
    if not include_power_nets:
        nets = [net for net in nets if not Circuit.is_power_rail(net)]
    net_row = dict(zip(nets, range(len(nets))))
    num_nets = len(nets)
    node_names = nets + block.names
    node_types = np.concatenate([np.full(num_nets, NODE_NET, dtype=np.int64),
                                 block.node_types()])
    index_of = dict(zip(node_names, range(len(node_names))))
    if len(index_of) != len(node_names):
        _raise_name_collision(node_names, node_types)
    terminal_rows = block.terminal_rows(net_row)
    edge_index, edge_types = block.edges(num_nets, terminal_rows)
    graph = CircuitGraph(
        name=circuit.name,
        node_types=node_types,
        node_names=node_names,
        edge_index=edge_index,
        edge_types=edge_types,
        _name_to_index=index_of,
    )
    if with_stats:
        port_rows = [net_row[port] for port in set(circuit.ports) if port in net_row]
        graph.node_stats = block.stats(len(node_names), num_nets, terminal_rows, port_rows)

    if parasitics is not None:
        attach_parasitics(graph, parasitics)
    return graph


def patch_graph(graph: CircuitGraph, delta: NetlistDelta, circuit: Circuit) -> CircuitGraph:
    """The graph of ``circuit = delta.apply(old)``, patched from the graph of ``old``.

    ``graph`` must be ``netlist_to_graph(old)`` without power nets (the
    default), and ``circuit`` must list the surviving devices in their old
    order followed by the added ones, as :meth:`NetlistDelta.apply` does.
    The result equals ``netlist_to_graph(circuit)`` on every field (names,
    types, edges, the ``node_stats`` bytes or their absence, and the name
    index), but only the added devices and the devices on the nets the
    delta touches are walked:

    1. surviving rows move by one ``old -> new`` index array: removed
       devices and their pins drop out, and a net that appears or vanishes
       shifts the sorted net block;
    2. the added devices' rows and edges are appended;
    3. only the net rows the delta touches are recomputed, from every
       device incident to them in the new device order (``np.add.at`` sums
       in that order, so the bytes match a full build);
    4. the name index is patched the same way; the CSR adjacency builds
       lazily from the patched edges.

    Parasitic links and ground capacitances are not carried over.  The
    input graph is left untouched.
    """
    names, types, edge_index = graph.node_names, graph.node_types, graph.edge_index
    old_nodes = graph.num_nodes
    old_nets = int(np.count_nonzero(types == NODE_NET))
    ports = set(circuit.ports)

    # A removed device is one run of rows (the device, then its pins) and one
    # run of edges (every edge ends at a pin, and edges follow pin order).
    old_device_rows = np.flatnonzero(types == NODE_DEVICE)
    starts = np.sort(np.array([graph.node_index(name) for name in delta.remove_devices],
                              dtype=np.int64))
    stops = np.append(old_device_rows[1:], old_nodes)[np.searchsorted(old_device_rows, starts)]
    edge_starts, edge_stops = np.searchsorted(edge_index[1], [starts, stops])
    net_pin = graph.edge_types == EDGE_NET_PIN
    gone = _ragged_flat(edge_starts, edge_stops - edge_starts)
    lost, lost_pins = np.unique(edge_index[0][gone[net_pin[gone]]], return_counts=True)
    pins_left = np.bincount(edge_index[0][net_pin], minlength=old_nets)[lost] - lost_pins

    added = circuit.devices[len(circuit.devices) - len(delta.add_devices):]
    block = _DeviceBlock.walk(added)
    added_nets = {net for net in block.terminal_nets if not Circuit.is_power_rail(net)}
    old_row = {net: graph.node_index(net) if graph.has_node(net) else -1
               for net in added_nets}
    fresh = sorted(net for net, row in old_row.items() if not 0 <= row < old_nets)
    vanished = np.zeros(old_nets, dtype=bool)
    for row in lost[pins_left == 0].tolist():
        vanished[row] = names[row] not in ports and names[row] not in added_nets

    # Net block: kept old rows keep their order, fresh nets slot in by name.
    vanished_before = np.concatenate([[0], np.cumsum(vanished)])
    insert_at = np.array([bisect_left(names, net, 0, old_nets) for net in fresh],
                         dtype=np.int64)
    fresh_before = np.cumsum(np.bincount(insert_at, minlength=old_nets + 1))
    num_nets = old_nets - int(vanished_before[-1]) + len(fresh)
    remap = np.full(old_nodes, -1, dtype=np.int64)
    remap[:old_nets] = np.arange(old_nets) - vanished_before[:-1] + fresh_before[:-1]
    remap[:old_nets][vanished] = -1
    fresh_rows = insert_at - vanished_before[insert_at] + np.arange(len(fresh))
    # The name index is the old one minus the removed names, with the rows
    # that moved and the added names written over it.
    index = dict(zip(names, range(old_nodes))) if graph._name_to_index is None \
        else graph._name_to_index.copy()
    for start, stop in zip(starts.tolist(), stops.tolist()):
        for name in names[start:stop]:
            del index[name]
    node_names = names[:old_nets]
    for row in np.flatnonzero(vanished)[::-1].tolist():
        del index[node_names.pop(row)]
    for net in fresh:
        insort(node_names, net)
    nets_moved = bool(fresh) or bool(vanished.any())
    if nets_moved:
        index.update(zip(node_names, range(num_nets)))

    # Device block: the runs between removed devices in their old order,
    # then the added devices.
    runs = []
    row = num_nets
    for start, stop in zip([old_nets, *stops.tolist()], [*starts.tolist(), old_nodes]):
        runs.append((start, stop, row))
        node_names += names[start:stop]
        remap[start:stop] = np.arange(row, row + stop - start)
        if row != start:
            index.update(zip(names[start:stop], range(row, row + stop - start)))
        row += stop - start
    added_start = row
    node_names += block.names
    index.update(zip(block.names, range(added_start, len(node_names))))
    node_types = np.concatenate([np.full(num_nets, NODE_NET, dtype=np.int64)]
                                + [types[start:stop] for start, stop, _ in runs]
                                + [block.node_types()])

    net_row = {net: int(remap[row]) for net, row in old_row.items() if 0 <= row < old_nets}
    net_row.update(zip(fresh, fresh_rows.tolist()))
    terminal_rows = block.terminal_rows(net_row)
    edge_runs = list(zip([0, *edge_stops.tolist()], [*edge_starts.tolist(), graph.num_edges]))
    kept_edges = remap[np.concatenate([edge_index[:, a:b] for a, b in edge_runs], axis=1)]
    kept_types = np.concatenate([graph.edge_types[a:b] for a, b in edge_runs])
    added_edges, added_types = block.edges(added_start, terminal_rows)
    patched = CircuitGraph(
        name=circuit.name,
        node_types=node_types,
        node_names=node_names,
        edge_index=np.concatenate([kept_edges, added_edges], axis=1),
        edge_types=np.concatenate([kept_types, added_types]),
        _name_to_index=index,
    )
    if len(index) != len(node_names):
        _raise_name_collision(node_names, node_types)
    if graph.node_stats is None:
        return patched

    old_stats = graph.node_stats
    stats = np.empty((len(node_names), old_stats.shape[1]))
    if not nets_moved:
        stats[:num_nets] = old_stats[:num_nets]
    else:
        kept_nets = np.flatnonzero(~vanished)
        stats[remap[kept_nets]] = old_stats[kept_nets]
    for start, stop, row in runs:
        stats[row:row + stop - start] = old_stats[start:stop]
    # The touched nets, and every surviving device with a pin on one of them.
    touched = np.union1d(remap[lost], np.fromiter(net_row.values(), np.int64, len(net_row)))
    touched = touched[touched >= 0]
    is_touched = np.zeros(len(node_names), dtype=bool)
    is_touched[touched] = True
    incident_pins = kept_edges[1][(kept_types == EDGE_NET_PIN) & is_touched[kept_edges[0]]]
    device_rows = np.flatnonzero(node_types == NODE_DEVICE)
    incident = np.unique(np.searchsorted(device_rows, incident_pins, side="right") - 1)
    local = _DeviceBlock.walk([circuit.devices[i] for i in incident.tolist()] + added)
    touched_names = [node_names[row] for row in touched.tolist()]
    local_row = dict(zip(touched_names, range(len(touched_names))))
    local_ports = [row for row, net in enumerate(touched_names) if net in ports]
    local_stats = local.stats(len(touched_names) + len(local.names), len(touched_names),
                              local.terminal_rows(local_row), local_ports)
    stats[touched] = local_stats[:len(touched_names)]
    stats[added_start:] = local_stats[len(local_stats) - len(block.names):]
    patched.node_stats = stats
    return patched


class _DeviceBlock(NamedTuple):
    """The columns of one walk over a device list, in node-row order.

    Rows are relative to the block's first row: each device row is followed
    by one pin row per terminal.  ``kinds`` and ``geometry`` are empty when
    the walk skipped the statistics.
    """

    names: list[str]           # device name, then its "device:terminal" pins
    counts: np.ndarray         # terminals per device
    terminal_names: list[str]
    terminal_nets: list[str]
    terminal_device: np.ndarray
    device_rows: np.ndarray
    pin_rows: np.ndarray
    kinds: np.ndarray
    geometry: list[tuple]

    @classmethod
    def walk(cls, devices, with_stats: bool = True) -> "_DeviceBlock":
        """One pass over ``devices``, collecting every column the graph needs."""
        names: list[str] = []
        counts: list[int] = []
        terminal_names: list[str] = []
        terminal_nets: list[str] = []
        kinds: list[int] = []
        geometry: list[tuple] = []
        for device in devices:
            name = device.name
            terminals = device.terminals
            names.append(name)
            names.extend([f"{name}:{terminal}" for terminal in terminals])
            counts.append(len(terminals))
            terminal_names.extend(terminals)
            terminal_nets.extend(terminals.values())
            if with_stats:
                kinds.append(_kind(device))
                geometry.append((getattr(device, "multiplier", 0), getattr(device, "length", 0.0),
                                 getattr(device, "width", 0.0), getattr(device, "fingers", 0),
                                 device.type_code))
        # Row ids by arithmetic: each device row is followed by its pin rows.
        counts_arr = np.array(counts, dtype=np.int64)
        terminal_device = np.repeat(np.arange(len(counts), dtype=np.int64), counts_arr)
        device_rows = np.arange(len(counts), dtype=np.int64) + np.cumsum(counts_arr) - counts_arr
        pin_rows = np.arange(len(terminal_nets), dtype=np.int64) + terminal_device + 1
        return cls(names, counts_arr, terminal_names, terminal_nets, terminal_device,
                   device_rows, pin_rows, np.array(kinds, dtype=np.int64), geometry)

    def node_types(self) -> np.ndarray:
        """The block's node types: device rows, the rest pins."""
        node_types = np.full(len(self.names), NODE_PIN, dtype=np.int64)
        node_types[self.device_rows] = NODE_DEVICE
        return node_types

    def terminal_rows(self, net_row: dict) -> np.ndarray:
        """Each terminal's net row, -1 for a net ``net_row`` leaves out."""
        return np.fromiter(map(net_row.get, self.terminal_nets, repeat(-1)),
                           dtype=np.int64, count=len(self.terminal_nets))

    def edges(self, start: int, terminal_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per terminal: (device, pin), then (net, pin) unless its net row is -1."""
        pin_rows = start + self.pin_rows
        keep = np.stack([np.ones(len(pin_rows), dtype=bool), terminal_rows >= 0], axis=1)
        sources = np.stack([start + self.device_rows[self.terminal_device], terminal_rows],
                           axis=1)[keep]
        targets = np.stack([pin_rows, pin_rows], axis=1)[keep]
        edge_types = np.broadcast_to(np.array([EDGE_DEVICE_PIN, EDGE_NET_PIN], dtype=np.int64),
                                     keep.shape)[keep]
        return np.stack([sources, targets]), edge_types

    def stats(self, num_nodes: int, start: int, terminal_rows: np.ndarray,
              port_rows: list[int]) -> np.ndarray:
        """``X_C`` of a graph holding this block from row ``start`` on."""
        return _node_stats(num_nodes, self.kinds, self.geometry, self.counts,
                           start + self.device_rows, self.terminal_names,
                           self.terminal_device, terminal_rows, start + self.pin_rows,
                           port_rows)


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
