"""Circuit-statistics feature matrix ``X_C`` (Table I of the paper).

For each node type the paper defines a vector of design statistics that feed
the *task-specific head* of CircuitGPS (they are deliberately **not** used as
input to the GPS trunk for link prediction — Observation 1).  The feature
layout below follows Table I exactly; vectors shorter than the maximum
dimensionality are zero-padded so ``X_C`` is a dense ``(N, 13)`` matrix.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ..netlist.devices import Capacitor, Device, Diode, Mosfet, Resistor
from ..nn.dtypes import FLOAT64

__all__ = ["STATS_DIM", "PIN_TYPE_CODES", "normalize_stats"]

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


def _node_stats(num_nodes: int, kind: np.ndarray, geometry: list[tuple],
                num_terminals: np.ndarray, device_rows: np.ndarray,
                terminal_names: list[str], terminal_device: np.ndarray,
                terminal_rows: np.ndarray, pin_rows: np.ndarray,
                port_rows: list[int]) -> np.ndarray:
    """``X_C`` from the columns of :func:`~repro.graph.netlist_to_graph`'s
    device walk.

    Per device: its kind (``_kind``), its ``(multiplier, length, width,
    fingers, type_code)`` geometry, its terminal count and its node row.
    Per terminal: its name, its device index, its net row (-1 for a dropped
    rail) and its pin row.  ``port_rows`` are the net rows of the ports.
    Each net row gets one contribution per (device, distinct net) pair,
    summed with ``np.add.at`` in device order.
    """
    multiplier, length, width, fingers, type_code = \
        np.array(geometry, dtype=FLOAT64).reshape(-1, 5).T
    length_um, width_um = length * 1e6, width * 1e6

    stats = np.zeros((num_nodes, STATS_DIM))
    # Device rows (Table I, x_i = 1): (multiplier, length, width) of MOSFETs
    # and resistors, (multiplier, length, fingers) of capacitors.
    columns = _DEVICE_OFFSET[kind][:, None] + np.arange(3)
    stats[device_rows[:, None], columns] = np.stack([
        multiplier, length_um, np.where(kind == _CAPACITOR, fingers, width_um),
    ], axis=1)
    stats[device_rows, 9] = num_terminals
    stats[device_rows, 10] = type_code

    # Net rows (Table I, x_i = 0): one contribution per (device, distinct
    # net), ordered by device (np.unique sorts the device-major pair keys),
    # so np.add.at sums each net's devices in circuit order.
    counted = (terminal_rows >= 0) & (kind[terminal_device] < _DIODE)
    pairs, pair_of = np.unique(terminal_device[counted] * num_nodes
                               + terminal_rows[counted], return_inverse=True)
    device, net = np.divmod(pairs, num_nodes)
    pin_column = np.fromiter(map(_MOSFET_PIN_COLUMN.get, terminal_names, repeat(0)),
                             dtype=np.int64, count=len(terminal_names))[counted]
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

    stats[port_rows, 12] = 1.0
    # Pin rows (Table I, x_i = 2): the pin-type code of the terminal name.
    stats[pin_rows, 0] = np.fromiter(
        map(PIN_TYPE_CODES.get, terminal_names, repeat(len(PIN_TYPE_CODES))),
        dtype=np.int64, count=len(terminal_names))
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
