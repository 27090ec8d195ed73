"""Circuit and sub-circuit containers plus hierarchy flattening.

A :class:`Circuit` is a collection of primitive devices and (optionally)
sub-circuit instances.  The graph-conversion stage of CircuitGPS operates on a
*flat* netlist, so :meth:`Circuit.flatten` recursively expands all hierarchy,
uniquifying internal instance and net names the way commercial netlisters do
(``Xbuf1/M2``, ``Xbuf1/n_int`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .devices import Capacitor, Device, Diode, Mosfet, Resistor, SubcktInstance, copy_device

__all__ = ["Circuit", "Subckt", "CircuitStats"]

GROUND_NAMES = {"0", "gnd", "vss", "vss!", "gnd!"}
SUPPLY_NAMES = {"vdd", "vdd!", "vcc", "vddh", "vddl"}


@dataclass
class CircuitStats:
    """Summary statistics of a flat circuit (feeds Table IV)."""

    num_devices: int
    num_nets: int
    num_mosfets: int
    num_resistors: int
    num_capacitors: int
    num_diodes: int
    num_pins: int

    def as_dict(self) -> dict:
        """The statistics as a plain dict (report rows)."""
        return {
            "num_devices": self.num_devices,
            "num_nets": self.num_nets,
            "num_mosfets": self.num_mosfets,
            "num_resistors": self.num_resistors,
            "num_capacitors": self.num_capacitors,
            "num_diodes": self.num_diodes,
            "num_pins": self.num_pins,
        }


@dataclass
class Subckt:
    """A sub-circuit definition: ports plus body devices/instances."""

    name: str
    ports: list[str]
    devices: list[Device] = field(default_factory=list)
    instances: list[SubcktInstance] = field(default_factory=list)

    def add(self, device: Device) -> Device:
        """Add a primitive device or sub-circuit instance to this subckt."""
        if isinstance(device, SubcktInstance):
            self.instances.append(device)
        else:
            self.devices.append(device)
        return device


class Circuit:
    """A (possibly hierarchical) schematic netlist."""

    def __init__(self, name: str, ports: list[str] | None = None):
        self.name = name
        self.ports: list[str] = list(ports or [])
        self.devices: list[Device] = []
        self.instances: list[SubcktInstance] = []
        self.subckts: dict[str, Subckt] = {}
        self._stats_cache: tuple[int, CircuitStats] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, device: Device) -> Device:
        """Add a primitive device or sub-circuit instance to the top level."""
        if isinstance(device, SubcktInstance):
            self.instances.append(device)
        else:
            self.devices.append(device)
        return device

    def define_subckt(self, subckt: Subckt) -> Subckt:
        """Register a sub-circuit definition (unique by name)."""
        if subckt.name in self.subckts:
            raise ValueError(f"subckt {subckt.name!r} already defined")
        self.subckts[subckt.name] = subckt
        return subckt

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def nets(self) -> list[str]:
        """All net names appearing at the top level (sorted, deterministic)."""
        names: set[str] = set(self.ports)
        for device in self.devices:
            names.update(device.nets)
        for instance in self.instances:
            names.update(instance.connections)
        return sorted(names)

    @property
    def is_flat(self) -> bool:
        """Whether the circuit contains no sub-circuit instances."""
        return not self.instances

    def net_devices(self) -> dict[str, list[Device]]:
        """Map each net to the primitive devices touching it (flat circuits)."""
        mapping: dict[str, list[Device]] = {}
        for device in self.devices:
            for net in set(device.nets):
                mapping.setdefault(net, []).append(device)
        return mapping

    def _structure_token(self) -> int:
        """Hash of the full hierarchical description (for stats caching).

        Linear in the *description* size — unlike :meth:`flatten`, which is
        linear in the *expanded* size — so recomputing it per :meth:`stats`
        call is cheap even for deeply arrayed hierarchies.  Covers top-level
        devices/instances and every subckt body, so in-place mutations via
        :meth:`Subckt.add` (or direct list edits) are caught too.
        """
        def device_token(d: Device) -> tuple:
            return (d.name, type(d).__name__, tuple(sorted(d.terminals.items())))

        def instance_token(i: SubcktInstance) -> tuple:
            return (i.name, i.subckt_name, tuple(i.connections))

        return hash((
            tuple(self.ports),
            tuple(device_token(d) for d in self.devices),
            tuple(instance_token(i) for i in self.instances),
            tuple(
                (s.name, tuple(s.ports),
                 tuple(device_token(d) for d in s.devices),
                 tuple(instance_token(i) for i in s.instances))
                for s in self.subckts.values()
            ),
        ))

    def stats(self) -> CircuitStats:
        """Device/net/pin counts of the flattened circuit.

        The result is cached against a structural fingerprint of the
        hierarchy, so repeated calls do not re-flatten an unchanged circuit
        (flattening is linear in the *expanded* device count, which for
        AMC-scale arrayed hierarchies dwarfs the description size).
        """
        token = self._structure_token()
        if self._stats_cache is not None and self._stats_cache[0] == token:
            return self._stats_cache[1]
        flat = self if self.is_flat else self.flatten()
        num_pins = sum(len(d.terminals) for d in flat.devices)
        result = CircuitStats(
            num_devices=len(flat.devices),
            num_nets=len(flat.nets),
            num_mosfets=sum(isinstance(d, Mosfet) for d in flat.devices),
            num_resistors=sum(isinstance(d, Resistor) for d in flat.devices),
            num_capacitors=sum(isinstance(d, Capacitor) for d in flat.devices),
            num_diodes=sum(isinstance(d, Diode) for d in flat.devices),
            num_pins=num_pins,
        )
        self._stats_cache = (token, result)
        return result

    @staticmethod
    def is_ground(net: str) -> bool:
        """Whether ``net`` is a ground name (0/gnd/vss...)."""
        return net.lower() in GROUND_NAMES

    @staticmethod
    def is_supply(net: str) -> bool:
        """Whether ``net`` is a supply name (vdd/vcc...)."""
        return net.lower() in SUPPLY_NAMES

    @staticmethod
    def is_power_rail(net: str) -> bool:
        """Whether ``net`` is ground or supply."""
        return Circuit.is_ground(net) or Circuit.is_supply(net)

    # ------------------------------------------------------------------ #
    # Flattening
    # ------------------------------------------------------------------ #
    def flatten(self, separator: str = "/") -> "Circuit":
        """Return a new circuit with all hierarchy expanded into primitives.

        Raises :class:`ValueError` when uniquification would silently alias
        two distinct nets — e.g. a top-level net literally named ``x1/a``
        colliding with the generated hierarchical name for instance ``x1``'s
        internal net ``a``, or two sibling instances sharing a name.
        """
        flat = Circuit(self.name, ports=list(self.ports))
        # Every top-level net name is registered verbatim; generated scoped
        # names must never land on one of them (or on a scoped name generated
        # for a *different* original net).  Keys are resolved names, values
        # identify the originating (scope, raw net) pair.
        registry: dict[str, tuple[str, str]] = {net: ("", net) for net in self.nets}
        scopes: set[str] = set()
        for device in self.devices:
            flat.add(copy_device(device))
        for instance in self.instances:
            self._expand_instance(instance, prefix="", target=flat, separator=separator,
                                  registry=registry, scopes=scopes)
        return flat

    def _expand_instance(self, instance: SubcktInstance, prefix: str, target: "Circuit",
                         separator: str,
                         registry: dict[str, tuple[str, str]] | None = None,
                         scopes: set[str] | None = None,
                         ancestry: tuple[tuple[str, str], ...] = ()) -> None:
        definition = self.subckts.get(instance.subckt_name)
        if definition is None:
            raise ValueError(
                f"instance {prefix + instance.name!r} references unknown subckt "
                f"{instance.subckt_name!r}"
            )
        # ``ancestry`` holds the (instance path, subckt) pairs being expanded
        # above this one; meeting one of their subckts again never terminates.
        ancestry = ancestry + ((f"{prefix}{instance.name}", definition.name),)
        if definition.name in (name for _, name in ancestry[:-1]):
            cycle = " -> ".join(f"{path} ({name})" for path, name in ancestry)
            raise ValueError(f"subckt {definition.name!r} instantiates itself: {cycle}")
        if len(instance.connections) != len(definition.ports):
            raise ValueError(
                f"instance {instance.name!r} connects {len(instance.connections)} nets but "
                f"subckt {definition.name!r} has {len(definition.ports)} ports"
            )
        scope = f"{prefix}{instance.name}{separator}"
        if registry is None:
            registry = {}
        if scopes is None:
            scopes = set()
        if scope in scopes:
            raise ValueError(
                f"duplicate instance name {instance.name!r} at scope "
                f"{prefix or '<top>'!r}: flattening would alias the internal nets of "
                f"both instances under {scope!r}; rename one of the instances"
            )
        scopes.add(scope)
        port_map = dict(zip(definition.ports, instance.connections))

        def resolve(net: str) -> str:
            if net in port_map:
                return port_map[net]
            if Circuit.is_power_rail(net):
                return net  # global nets are not uniquified
            resolved = f"{scope}{net}"
            origin = registry.setdefault(resolved, (scope, net))
            if origin != (scope, net):
                kind = ("a net literally named" if origin[0] == ""
                        else f"the internal net {origin[1]!r} of instance scope {origin[0]!r}, i.e.")
                raise ValueError(
                    f"flattening would alias two distinct nets as {resolved!r}: "
                    f"internal net {net!r} of instance scope {scope!r} collides with "
                    f"{kind} {resolved!r}; rename the net or flatten with a different "
                    f"separator"
                )
            return resolved

        for device in definition.devices:
            clone = copy_device(device)
            clone.name = f"{scope}{device.name}"
            clone.terminals = {term: resolve(net) for term, net in device.terminals.items()}
            target.add(clone)

        for child in definition.instances:
            child_clone = copy_device(child)
            child_clone.connections = [resolve(net) for net in child.connections]
            child_clone.terminals = {
                term: resolve(net) for term, net in child.terminals.items()
            }
            # Recurse with the extended prefix; the child's own name is appended there.
            self._expand_instance(child_clone, prefix=scope, target=target,
                                  separator=separator, registry=registry, scopes=scopes,
                                  ancestry=ancestry)

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, devices={len(self.devices)}, "
            f"instances={len(self.instances)}, subckts={len(self.subckts)})"
        )
