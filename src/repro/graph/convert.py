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
        _device_rows=num_nets + block.device_rows,
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
    default), and ``circuit`` must list its devices in
    :meth:`NetlistDelta.apply`'s order: the survivors in their old order,
    each replacement in the slot of the device of the same name, and the
    new names appended.  The result equals ``netlist_to_graph(circuit)`` on
    every field (names, types, edges, the ``node_stats`` bytes or their
    absence, and the name index), but only the delta's devices and the
    devices on the nets it touches are walked.

    When no node or edge changes — every added device replaces a removed
    one with the same terminal names, each on the same net, as a resize
    does — the result shares the input's node names, types, edges, name
    index, device rows and CSR adjacency.  Any other delta renumbers the
    rows (:func:`_patch_renumbered`).  Either way only the ``node_stats``
    rows of the touched nets and of the walked devices and their pins are
    recomputed, from every device incident to those nets in the new device
    order (``np.add.at`` sums in that order, so the bytes match a full
    build).

    The result is read-only: its arrays are flagged unwriteable, and so are
    the input's arrays it shares, so after a resize (or an empty delta) a
    write to the input's edges, types, CSR or (empty delta) ``node_stats``
    raises ``ValueError`` too.  The shared name list and name index carry
    no flag; neither graph's must be edited.  Parasitic links and ground
    capacitances are not carried over.
    """
    patched = _patch_in_place(graph, delta, circuit)
    if patched is None:
        patched = _patch_renumbered(graph, delta, circuit)
    arrays = [patched.node_types, patched.edge_index, patched.edge_types, patched.node_stats,
              patched._device_rows]
    if patched._csr is not None:
        csr = patched._csr
        arrays += [csr.indptr, csr.indices, csr.edge_ids, csr.edge_index, csr.edge_types]
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return patched


def _patch_in_place(graph: CircuitGraph, delta: NetlistDelta,
                    circuit: Circuit) -> CircuitGraph | None:
    """:func:`patch_graph` for a delta that changes no node or edge, else ``None``."""
    removed = set(delta.remove_devices)
    if len(delta.add_devices) != len(removed) \
            or not all(device.name in removed for device in delta.add_devices):
        return None
    names, types = graph.node_names, graph.node_types
    edge_index, edge_types = graph.edge_index, graph.edge_types
    rows = [graph.node_index(device.name) for device in delta.add_devices]
    index = graph._name_to_index
    # Every edge ends at a pin and edges follow pin order, so a device's
    # edges are the run between its first pin row and the next device row.
    stops = [row + 1 + len(device.terminals) for row, device in zip(rows, delta.add_devices)]
    edge_runs = np.searchsorted(edge_index[1], [[row + 1 for row in rows], stops]).T.tolist()
    nets: list[int] = []
    for device, row, stop, (first, last) in zip(delta.add_devices, rows, stops, edge_runs):
        name = device.name
        if names[row + 1:stop] != [f"{name}:{terminal}" for terminal in device.terminals] \
                or (stop < len(names) and types[stop] == NODE_PIN):
            return None
        # (type, source) per edge; a fresh net or a name clash cannot match.
        want = []
        for net in device.terminals.values():
            want.append((EDGE_DEVICE_PIN, row))
            if not Circuit.is_power_rail(net):
                want.append((EDGE_NET_PIN, index.get(net, -1)))
        if list(zip(edge_types[first:last].tolist(), edge_index[0, first:last].tolist())) != want:
            return None
        nets += [source for kind, source in want if kind == EDGE_NET_PIN]

    csr, device_rows = graph.csr, graph.device_rows
    patched = CircuitGraph(
        name=circuit.name,
        node_types=types,
        node_names=names,
        edge_index=edge_index,
        edge_types=edge_types,
        _csr=csr,
        _name_to_index=index,
        _device_rows=device_rows,
    )
    if graph.node_stats is None or not rows:
        patched.node_stats = graph.node_stats
        return patched
    # The touched nets, and every device with a pin on one of them: the
    # other devices keep their edges, so the shared adjacency finds them.
    touched = np.unique(np.array(nets, dtype=np.int64))
    pins = csr.indices[csr._half_edges(touched)]
    walked = np.union1d(device_rows[np.searchsorted(device_rows, pins, side="right") - 1], rows)
    patched.node_stats = graph.node_stats.copy()
    _restat(patched, circuit, touched, walked)
    return patched


def _patch_renumbered(graph: CircuitGraph, delta: NetlistDelta,
                      circuit: Circuit) -> CircuitGraph:
    """:func:`patch_graph` for any delta, renumbering the rows that move.

    1. surviving rows move by one ``old -> new`` index array: removed
       devices and their pins drop out, and a net that appears or vanishes
       shifts the sorted net block;
    2. the delta's devices are walked as one block: each replacement goes
       in the slot of the device it replaces, the new names at the end;
    3. the name index is patched the same way; the CSR adjacency builds
       lazily from the patched edges.
    """
    names, types, edge_index = graph.node_names, graph.node_types, graph.edge_index
    old_nodes = graph.num_nodes
    old_device_rows = graph.device_rows
    old_nets = int(old_device_rows[0]) if old_device_rows.size else old_nodes
    ports = set(circuit.ports)

    # A removed device is one run of rows (the device, then its pins) and one
    # run of edges (every edge ends at a pin, and edges follow pin order).
    starts = np.sort(np.array([graph.node_index(name) for name in delta.remove_devices],
                              dtype=np.int64))
    stops = np.append(old_device_rows[1:], old_nodes)[np.searchsorted(old_device_rows, starts)]
    edge_starts, edge_stops = np.searchsorted(edge_index[1], [starts, stops])
    net_pin = graph.edge_types == EDGE_NET_PIN
    gone = _ragged_flat(edge_starts, edge_stops - edge_starts)
    lost, lost_pins = np.unique(edge_index[0][gone[net_pin[gone]]], return_counts=True)
    pins_left = np.bincount(edge_index[0][net_pin], minlength=old_nets)[lost] - lost_pins

    # The block: each replacement in the order of its slot, then the new names.
    removed = set(delta.remove_devices)
    replaced = {graph.node_index(device.name): device for device in delta.add_devices
                if device.name in removed}
    appended = [device for device in delta.add_devices if device.name not in removed]
    block = _DeviceBlock.walk([replaced[row] for row in sorted(replaced)] + appended)
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
    net_row = {net: int(remap[row]) for net, row in old_row.items() if 0 <= row < old_nets}
    net_row.update(zip(fresh, fresh_rows.tolist()))
    (block_sources, block_targets), block_edge_types = block.edges(0, block.terminal_rows(net_row))
    block_bounds = np.append(block.device_rows, len(block.names))
    block_edge_bounds = np.searchsorted(block_targets, block_bounds).tolist()
    block_bounds = block_bounds.tolist()

    # Device block: the runs between removed devices in their old order, a
    # replacement after the run that ends at its slot, then the new names.
    # A piece is (from the input graph?, row start, row stop, edge start, edge stop).
    pieces = []
    j = 0  # the next replacement in the block
    for start, stop, edge_start, edge_stop, removed_row in zip(
            [old_nets, *stops.tolist()], [*starts.tolist(), old_nodes],
            [0, *edge_stops.tolist()], [*edge_starts.tolist(), graph.num_edges],
            [*starts.tolist(), None]):
        pieces.append((True, start, stop, edge_start, edge_stop))
        if removed_row in replaced:
            pieces.append((False, block_bounds[j], block_bounds[j + 1],
                           block_edge_bounds[j], block_edge_bounds[j + 1]))
            j += 1
    if appended:
        pieces.append((False, block_bounds[j], block_bounds[-1],
                       block_edge_bounds[j], block_edge_bounds[-1]))
    block_row = np.empty(len(block.names), dtype=np.int64)
    block_types = block.node_types()
    type_parts = [np.full(num_nets, NODE_NET, dtype=np.int64)]
    old_runs = []
    placed = []  # each piece's first row in the patched graph
    row = num_nets
    for old, start, stop, _, _ in pieces:
        placed.append(row)
        size = stop - start
        source = names if old else block.names
        node_names += source[start:stop]
        (remap if old else block_row)[start:stop] = np.arange(row, row + size)
        type_parts.append((types if old else block_types)[start:stop])
        if not old or row != start:
            index.update(zip(source[start:stop], range(row, row + size)))
        if old:
            old_runs.append((start, stop, row))
        row += size
    node_types = np.concatenate(type_parts)

    device_pin = block_edge_types == EDGE_DEVICE_PIN
    block_sources[device_pin] = block_row[block_sources[device_pin]]
    block_edges = np.stack([block_sources, block_row[block_targets]])
    # An old run whose rows and nets kept their numbers keeps its edges as
    # they are.
    edge_parts = [block_edges[:, a:b] if not old
                  else remap[edge_index[:, a:b]] if nets_moved or row != start
                  else edge_index[:, a:b]
                  for (old, start, _, a, b), row in zip(pieces, placed)]
    patched = CircuitGraph(
        name=circuit.name,
        node_types=node_types,
        node_names=node_names,
        edge_index=np.concatenate(edge_parts, axis=1),
        edge_types=np.concatenate([graph.edge_types[a:b] if old else block_edge_types[a:b]
                                   for old, _, _, a, b in pieces]),
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
    for start, stop, row in old_runs:
        stats[row:row + stop - start] = old_stats[start:stop]
    patched.node_stats = stats
    # The touched nets, and every device with a pin on one of them.
    touched = np.union1d(remap[lost], np.fromiter(net_row.values(), np.int64, len(net_row)))
    touched = touched[touched >= 0]
    is_touched = np.zeros(len(node_names), dtype=bool)
    is_touched[touched] = True
    edges, edge_types = patched.edge_index, patched.edge_types
    incident_pins = edges[1][(edge_types == EDGE_NET_PIN) & is_touched[edges[0]]]
    device_rows = patched.device_rows
    incident = device_rows[np.searchsorted(device_rows, incident_pins, side="right") - 1]
    _restat(patched, circuit, touched, np.union1d(incident, block_row[block.device_rows]))
    return patched


def _restat(graph: CircuitGraph, circuit: Circuit, touched: np.ndarray,
            walked: np.ndarray) -> None:
    """Recompute, in place, the ``node_stats`` rows of the ``touched`` net
    rows and of the devices at the ``walked`` device rows (with their pins)
    of ``graph``, the graph of ``circuit``.

    ``walked`` is ascending and holds every device with a pin on a touched
    net, so each net's sum runs over its devices in circuit order.
    """
    ordinals = np.searchsorted(graph.device_rows, walked)
    local = _DeviceBlock.walk([circuit.devices[i] for i in ordinals.tolist()])
    touched_names = [graph.node_names[row] for row in touched.tolist()]
    local_row = dict(zip(touched_names, range(len(touched_names))))
    ports = set(circuit.ports)
    local_ports = [row for row, net in enumerate(touched_names) if net in ports]
    local_stats = local.stats(len(touched_names) + len(local.names), len(touched_names),
                              local.terminal_rows(local_row), local_ports)
    stats = graph.node_stats
    stats[touched] = local_stats[:len(touched_names)]
    spans = local.counts + 1
    stats[_ragged_flat(walked, spans)] = \
        local_stats[_ragged_flat(len(touched_names) + local.device_rows, spans)]


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
