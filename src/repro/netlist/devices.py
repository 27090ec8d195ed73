"""Device primitives appearing in AMS schematic netlists.

The heterogeneous circuit graph of the paper distinguishes three node types —
nets, devices and pins — where a *device* may be a MOS transistor, resistor,
capacitor or diode (Fig. 1 of the paper).  Each device class records its
terminal-to-net connectivity and its geometric parameters (width, length,
multiplier, fingers), because those parameters populate the circuit-statistics
matrix ``X_C`` of Table I and drive the synthetic parasitic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Device",
    "Mosfet",
    "Resistor",
    "Capacitor",
    "Diode",
    "SubcktInstance",
    "DEVICE_TYPE_CODES",
    "copy_device",
]

# Type codes used for the "type code of the device instance" entry of X_C.
DEVICE_TYPE_CODES = {
    "nmos": 0,
    "pmos": 1,
    "resistor": 2,
    "capacitor": 3,
    "diode": 4,
    "subckt": 5,
}


@dataclass
class Device:
    """Base class for all schematic devices.

    Attributes
    ----------
    name:
        Instance name, e.g. ``M1`` or ``XINV3``.
    terminals:
        Ordered mapping terminal-name -> net-name.
    """

    name: str
    terminals: dict[str, str] = field(default_factory=dict)

    @property
    def device_kind(self) -> str:
        """Human-readable device kind (mosfet/resistor/...)."""
        raise NotImplementedError

    @property
    def type_code(self) -> int:
        """Integer type code used by the graph features."""
        return DEVICE_TYPE_CODES[self.device_kind]

    @property
    def nets(self) -> list[str]:
        """Nets touched by this device (with duplicates preserved per terminal)."""
        return list(self.terminals.values())

    def terminal_items(self) -> list[tuple[str, str]]:
        """(terminal, net) pairs in declaration order."""
        return list(self.terminals.items())


@dataclass
class Mosfet(Device):
    """MOS transistor with W/L/multiplier geometry.

    ``polarity`` is ``"nmos"`` or ``"pmos"``; terminals are D, G, S, B.
    """

    polarity: str = "nmos"
    width: float = 100e-9
    length: float = 30e-9
    multiplier: int = 1
    fingers: int = 1

    def __post_init__(self):
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"unknown MOS polarity {self.polarity!r}")
        required = {"D", "G", "S", "B"}
        missing = required - set(self.terminals)
        if missing:
            raise ValueError(f"MOSFET {self.name} missing terminals {sorted(missing)}")

    @property
    def device_kind(self) -> str:
        """Human-readable device kind."""
        return self.polarity

    @property
    def gate_area(self) -> float:
        """Total gate area W*L*NF*M in m^2."""
        return self.width * self.length * self.multiplier


@dataclass
class Resistor(Device):
    """Poly/diffusion resistor with resistance and geometry."""

    resistance: float = 1e3
    width: float = 200e-9
    length: float = 1e-6
    multiplier: int = 1

    def __post_init__(self):
        required = {"P", "N"}
        missing = required - set(self.terminals)
        if missing:
            raise ValueError(f"Resistor {self.name} missing terminals {sorted(missing)}")

    @property
    def device_kind(self) -> str:
        """Human-readable device kind."""
        return "resistor"


@dataclass
class Capacitor(Device):
    """MOM/MIM capacitor with capacitance, finger count and geometry."""

    capacitance: float = 1e-15
    width: float = 500e-9
    length: float = 2e-6
    fingers: int = 4
    multiplier: int = 1

    def __post_init__(self):
        required = {"P", "N"}
        missing = required - set(self.terminals)
        if missing:
            raise ValueError(f"Capacitor {self.name} missing terminals {sorted(missing)}")

    @property
    def device_kind(self) -> str:
        """Human-readable device kind."""
        return "capacitor"


@dataclass
class Diode(Device):
    """Junction diode (used for ESD clamps and bandgap cores)."""

    area: float = 1e-12
    multiplier: int = 1

    def __post_init__(self):
        required = {"P", "N"}
        missing = required - set(self.terminals)
        if missing:
            raise ValueError(f"Diode {self.name} missing terminals {sorted(missing)}")

    @property
    def device_kind(self) -> str:
        """Human-readable device kind."""
        return "diode"


@dataclass
class SubcktInstance(Device):
    """Instantiation of a sub-circuit (hierarchical designs)."""

    subckt_name: str = ""
    # Positional net connections in the order of the subckt port list.
    connections: list[str] = field(default_factory=list)

    @property
    def device_kind(self) -> str:
        """Human-readable device kind."""
        return "subckt"


def copy_device(device: Device) -> Device:
    """An independent copy of ``device``, much cheaper than ``copy.deepcopy``.

    Every field is copied shallowly; the mutable ones — ``terminals`` and,
    on a :class:`SubcktInstance`, ``connections`` — get fresh containers, so
    editing the copy never touches the original.
    """
    clone = object.__new__(type(device))
    clone.__dict__.update(device.__dict__)
    clone.terminals = dict(device.terminals)
    if isinstance(device, SubcktInstance):
        clone.connections = list(device.connections)
    return clone
