"""Circuit-statistics feature matrix ``X_C`` (Table I of the paper).

For each node type the paper defines a vector of design statistics that feed
the *task-specific head* of CircuitGPS (they are deliberately **not** used as
input to the GPS trunk for link prediction — Observation 1).  The feature
layout below follows Table I exactly; vectors shorter than the maximum
dimensionality are zero-padded so ``X_C`` is a dense ``(N, 13)`` matrix.
"""

from __future__ import annotations

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.devices import Capacitor, Device, Diode, Mosfet, Resistor
from ..nn.dtypes import FLOAT64
from .hetero import NODE_DEVICE, NODE_NET, NODE_PIN

__all__ = ["STATS_DIM", "PIN_TYPE_CODES", "compute_node_stats", "normalize_stats"]

STATS_DIM = 13

# Pin-type codes for the single-dimensional pin statistics (Table I, x_i = 2).
PIN_TYPE_CODES = {"G": 0, "D": 1, "S": 2, "B": 3, "P": 4, "N": 5}


# Device kinds, in the order Table I tests them, and the column offset of
# each kind's (multiplier, length, width-or-fingers) device statistics.
_MOSFET, _RESISTOR, _CAPACITOR, _DIODE, _OTHER = range(5)
_DEVICE_OFFSET = np.array([0, 3, 6, 0, 0])
# Net statistics count MOSFET gate, source/drain and bulk pins separately.
_MOSFET_PIN_COLUMN = {"G": 1, "S": 2, "D": 2, "B": 3}


def _kind(device: Device) -> int:
    if isinstance(device, Mosfet):
        return _MOSFET
    if isinstance(device, Resistor):
        return _RESISTOR
    if isinstance(device, Capacitor):
        return _CAPACITOR
    if isinstance(device, Diode):
        return _DIODE
    return _OTHER


def compute_node_stats(circuit: Circuit, node_names: list[str], node_types: np.ndarray) -> np.ndarray:
    """Build ``X_C`` for the node ordering of an already-converted graph.

    One pass over ``circuit.devices`` collects per-device and per-terminal
    columns.  Each net row then gets one contribution per (device, distinct
    net) pair, summed with ``np.add.at`` in device order.

    Parameters
    ----------
    circuit:
        The flat circuit the graph was converted from.
    node_names:
        Node names in graph order (net name, device name, or ``device:terminal``).
    node_types:
        Node-type array aligned with ``node_names``.
    """
    node_types = np.asarray(node_types)
    unknown = ~np.isin(node_types, (NODE_NET, NODE_DEVICE, NODE_PIN))
    if unknown.any():
        raise ValueError(f"unknown node type {node_types[unknown][0]}")
    net_row: dict[str, int] = {}
    device_row: dict[str, int] = {}
    pin_rows: list[int] = []
    pin_codes: list[int] = []
    for index, (name, node_type) in enumerate(zip(node_names, node_types.tolist())):
        if node_type == NODE_NET:
            net_row[name] = index
        elif node_type == NODE_DEVICE:
            device_row[name] = index
        else:
            pin_rows.append(index)
            pin_codes.append(PIN_TYPE_CODES.get(name.split(":", 1)[1], len(PIN_TYPE_CODES)))
    devices = circuit.devices
    missing = device_row.keys() - {device.name for device in devices}
    if missing:
        raise KeyError(sorted(missing)[0])

    kinds: list[int] = []
    geometry: list[tuple] = []
    terminal_names: list[str] = []
    terminal_nets: list[str] = []
    for device in devices:
        kind = _kind(device)
        kinds.append(kind)
        geometry.append((getattr(device, "multiplier", 0), getattr(device, "length", 0.0),
                         getattr(device, "width", 0.0), getattr(device, "fingers", 0),
                         len(device.terminals), device.type_code,
                         device_row.get(device.name, -1)))
        terminal_names.extend(device.terminals)
        terminal_nets.extend(device.terminals.values())
    kind = np.array(kinds, dtype=np.int64)
    multiplier, length, width, fingers, num_terminals, type_code, row = \
        np.array(geometry, dtype=FLOAT64).reshape(-1, 7).T
    length_um, width_um = length * 1e6, width * 1e6

    stats = np.zeros((len(node_names), STATS_DIM))
    # Device rows (Table I, x_i = 1): (multiplier, length, width) of MOSFETs
    # and resistors, (multiplier, length, fingers) of capacitors.
    has_row = row >= 0
    rows = row[has_row].astype(np.int64)
    columns = _DEVICE_OFFSET[kind[has_row]][:, None] + np.arange(3)
    stats[rows[:, None], columns] = np.stack([
        multiplier, length_um, np.where(kind == _CAPACITOR, fingers, width_um),
    ], axis=1)[has_row]
    stats[rows, 9] = num_terminals[has_row]
    stats[rows, 10] = type_code[has_row]

    # Net rows (Table I, x_i = 0): one contribution per (device, distinct
    # net), ordered by device (np.unique sorts the device-major pair keys),
    # so np.add.at sums each net's devices in circuit order.
    terminal_device = np.repeat(np.arange(len(devices)), num_terminals.astype(np.int64))
    terminal_row = np.array([net_row.get(net, -1) for net in terminal_nets], dtype=np.int64)
    counted = (terminal_row >= 0) & (kind[terminal_device] < _DIODE)
    pairs, pair_of = np.unique(terminal_device[counted] * len(node_names)
                               + terminal_row[counted], return_inverse=True)
    device, net = np.divmod(pairs, len(node_names))
    pin_column = np.array([_MOSFET_PIN_COLUMN.get(name, 0) for name in terminal_names],
                          dtype=np.int64)[counted]
    values = np.zeros((pairs.shape[0], STATS_DIM))
    mosfet = kind[device] == _MOSFET
    values[mosfet, 0] = 1
    for column in (1, 2, 3):
        pins = np.bincount(pair_of, weights=pin_column == column, minlength=pairs.shape[0])
        values[mosfet, column] = pins[mosfet]
    values[mosfet, 4] = (width * multiplier * 1e6)[device[mosfet]]
    values[mosfet, 5] = (length * multiplier * 1e6)[device[mosfet]]
    capacitor = kind[device] == _CAPACITOR
    values[capacitor, 6] = 1
    values[capacitor, 7] = length_um[device[capacitor]]
    values[capacitor, 8] = fingers[device[capacitor]]
    resistor = kind[device] == _RESISTOR
    values[resistor, 9] = 1
    values[resistor, 10] = width_um[device[resistor]]
    values[resistor, 11] = length_um[device[resistor]]
    np.add.at(stats, net, values)

    stats[[net_row[port] for port in set(circuit.ports) if port in net_row], 12] = 1.0
    stats[pin_rows, 0] = pin_codes
    return stats


def normalize_stats(stats: np.ndarray, reference: np.ndarray | None = None,
                    eps: float = 1e-9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-max normalise ``X_C`` to [0, 1] as described in Section IV-C.

    Returns the normalised matrix along with the (min, range) used, so test
    designs can be normalised with the training-set statistics.
    """
    ref = stats if reference is None else reference
    minimum = ref.min(axis=0)
    value_range = ref.max(axis=0) - minimum
    value_range = np.where(value_range < eps, 1.0, value_range)
    normalised = (stats - minimum) / value_range
    return np.clip(normalised, 0.0, 1.0), minimum, value_range
