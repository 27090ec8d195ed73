"""Device primitives appearing in AMS schematic netlists.

The heterogeneous circuit graph of the paper distinguishes three node types —
nets, devices and pins — where a *device* may be a MOS transistor, resistor,
capacitor or diode (Fig. 1 of the paper).  Each device class records its
terminal-to-net connectivity and its geometric parameters (width, length,
multiplier, fingers), because those parameters populate the circuit-statistics
matrix ``X_C`` of Table I and drive the synthetic parasitic model.

A circuit revision built by :meth:`~repro.netlist.NetlistDelta.apply` holds
*sealed* devices (:func:`seal_device`), which reject every write, so the
revisions of an ECO chain can share their untouched devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = [
    "Device",
    "Mosfet",
    "Resistor",
    "Capacitor",
    "Diode",
    "SubcktInstance",
    "DEVICE_TYPE_CODES",
    "copy_device",
    "seal_device",
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

    Devices are plain mutable dataclasses, except the sealed ones of a
    circuit revision (:func:`seal_device`): those reject every attribute
    and ``terminals`` write; :func:`copy_device` gives a writable copy.

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
    """A writable, independent copy of ``device``, much cheaper than
    ``copy.deepcopy``.

    Every field is copied shallowly; the mutable ones — ``terminals`` and,
    on a :class:`SubcktInstance`, ``connections`` — get fresh containers, so
    editing the copy never touches the original.  The copy of a sealed
    device is an ordinary, unsealed one.
    """
    clone = object.__new__(_PLAIN.get(type(device), type(device)))
    clone.__dict__.update(device.__dict__)
    clone.terminals = dict(device.terminals)
    if isinstance(device, SubcktInstance):
        clone.connections = list(device.connections)
    return clone


def seal_device(device: Device) -> Device:
    """``device`` itself if it is sealed, else a sealed copy of it.

    A sealed device is an instance of its type's sealed twin, a subclass
    that rejects attribute assignment and deletion (``AttributeError``) and
    whose ``terminals`` is a ``dict`` that rejects item writes
    (``TypeError``).  Nothing can change it, so circuit revisions share
    it.  It compares equal to its unsealed copy in both directions;
    ``copy.copy``, ``copy.deepcopy`` and :func:`copy_device` of it return
    writable unsealed copies, and it pickles as a sealed device.  Only
    primitive devices seal: a :class:`SubcktInstance` raises ``TypeError``.
    """
    if isinstance(device, _Sealed):
        return device
    sealed = object.__new__(_sealed_type(type(device)))
    state = sealed.__dict__
    state.update(device.__dict__)
    state["terminals"] = _ReadOnlyTerminals(device.terminals)
    return sealed


class _ReadOnlyTerminals(dict):
    """The ``terminals`` of a sealed device: a ``dict`` that rejects writes."""

    __slots__ = ()

    def _reject(self, *args, **kwargs):
        raise TypeError("the terminals of a sealed device are read-only; "
                        "edit copy_device(device) instead")

    __setitem__ = __delitem__ = __ior__ = _reject
    clear = pop = popitem = setdefault = update = _reject

    def __reduce__(self):
        return dict, (dict(self),)


class _Sealed:
    """What every sealed twin adds to its device type (see :func:`seal_device`)."""

    __slots__ = ()
    #: The names of the fields the dataclass ``__eq__`` compares.
    _compared: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"device {self.name!r} is sealed into a circuit "
                             "revision; edit copy_device(device) instead")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __eq__(self, other):
        # The dataclass __eq__ requires the same class on both sides; a
        # sealed device equals its unsealed copy and vice versa (Python
        # tries the subclass's reflected __eq__ first).
        plain = _PLAIN[type(self)]
        if _PLAIN.get(type(other), type(other)) is not plain:
            return NotImplemented
        names = self._compared
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    __hash__ = None

    def __copy__(self):
        return copy_device(self)

    def __deepcopy__(self, memo):
        return copy_device(self)

    def __reduce__(self):
        return seal_device, (copy_device(self),)


_SEALED: dict[type, type] = {}   # device type -> its sealed twin
_PLAIN: dict[type, type] = {}    # sealed twin -> its device type


def _sealed_type(cls: type) -> type:
    twin = _SEALED.get(cls)
    if twin is None:
        if issubclass(cls, SubcktInstance):
            raise TypeError(f"cannot seal subckt instance type {cls.__name__}; "
                            "flatten the circuit first")
        twin = type(f"Sealed{cls.__name__}", (_Sealed, cls), {
            "__slots__": (),
            "__module__": cls.__module__,
            "_compared": tuple(f.name for f in fields(cls) if f.compare),
        })
        _SEALED[cls] = twin
        _PLAIN[twin] = cls
    return twin
