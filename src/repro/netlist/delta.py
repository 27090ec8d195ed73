"""ECO-style netlist deltas for incremental re-annotation.

An engineering change order (ECO) touches a handful of devices in a design
that may hold hundreds of thousands — re-annotating from zero repeats almost
all of the previous run's work.  :class:`NetlistDelta` is the minimal edit
model the incremental path (:meth:`repro.core.serve.AnnotationEngine.reannotate`)
consumes: devices added and devices removed, by name, against a *flat*
circuit.  Nets are implicit — a net exists exactly while some device terminal
(or port) references it, so adding/removing a device is also how nets appear
and disappear; an in-place edit is modelled as remove + add of the same name.

:meth:`NetlistDelta.between` recovers the delta from two circuit revisions
(the CLI ``reannotate`` path, where the caller has an old and a new SPICE
file rather than an explicit edit script), and :meth:`NetlistDelta.apply`
replays a delta onto a circuit, which is how the engine builds the
post-change revision from ``prev_report.circuit``.  A revision holds sealed
devices (:func:`~repro.netlist.devices.seal_device`), so each revision of
an ECO chain shares its untouched devices with the one it came from, and
its device list carries a name -> position index, so applying the next
delta to it costs the size of that delta, not of the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit
from .devices import Device, SubcktInstance, copy_device, seal_device

__all__ = ["NetlistDelta"]


@dataclass
class NetlistDelta:
    """An ECO-style edit: devices to add and device names to remove.

    Attributes
    ----------
    add_devices:
        Primitive devices to append (flat names; :class:`SubcktInstance` is
        rejected — deltas operate on flattened circuits).
    remove_devices:
        Names of existing devices to drop.
    """

    add_devices: list[Device] = field(default_factory=list)
    remove_devices: list[str] = field(default_factory=list)

    def __post_init__(self):
        for device in self.add_devices:
            if isinstance(device, SubcktInstance):
                raise ValueError(
                    f"delta device {device.name!r} is a subckt instance; deltas "
                    "apply to flat circuits — flatten the edit first"
                )
        removed = set(self.remove_devices)
        if len(removed) != len(self.remove_devices):
            raise ValueError("remove_devices contains duplicate names")
        added = [d.name for d in self.add_devices]
        if len(set(added)) != len(added):
            raise ValueError("add_devices contains duplicate names")

    @property
    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not self.add_devices and not self.remove_devices

    @property
    def num_changes(self) -> int:
        """Total edit count (adds plus removes)."""
        return len(self.add_devices) + len(self.remove_devices)

    def touched_nets(self, circuit: Circuit) -> set[str]:
        """Every net a changed device touches, in ``circuit``'s flat namespace.

        Includes the nets of added devices and the nets of removed devices as
        recorded in the pre-change ``circuit``; power rails are kept (the
        graph drops them later, but callers may care).
        """
        removed = set(self.remove_devices)
        nets: set[str] = set()
        for device in circuit.devices:
            if device.name in removed:
                nets.update(device.nets)
        for device in self.add_devices:
            nets.update(device.nets)
        return nets

    def apply(self, circuit: Circuit) -> Circuit:
        """The post-change revision of a flat ``circuit`` (new object).

        A replacement (a remove and an add of the same name) takes the
        removed device's slot, other removed devices drop out, and added
        devices with new names are appended in delta order.  So a delta of
        in-place edits keeps the device order, as the edited netlist file
        does.  Every device of the result is sealed
        (:func:`~repro.netlist.devices.seal_device`): a survivor that is
        sealed already is shared with ``circuit``, any other survivor and
        each added device is a sealed copy.  So neither ``circuit`` nor the
        delta's own devices change.  The result's device list carries a
        name -> position index; applying a delta to it copies the list and
        then works per delta device, and an in-place edit of the list drops
        the index, so the next ``apply`` walks and seals the list again.
        Raises ``KeyError`` for removals that name no existing device and
        ``ValueError`` for additions that collide with a surviving name or
        for a circuit with two devices of one name.
        """
        flat = circuit if circuit.is_flat else circuit.flatten()
        devices = flat.devices
        positions = devices._positions if isinstance(devices, _Revision) else None
        if positions is None:
            devices = [seal_device(device) for device in devices]
            positions = {device.name: slot for slot, device in enumerate(devices)}
            if len(positions) != len(devices):
                raise ValueError(f"circuit {flat.name!r} has two devices of one name")
        missing = [name for name in self.remove_devices if name not in positions]
        if missing:
            raise KeyError(f"delta removes unknown device(s) {missing}")
        removed = set(self.remove_devices)
        colliding = [d.name for d in self.add_devices
                     if d.name in positions and d.name not in removed]
        if colliding:
            raise ValueError(
                f"delta adds device(s) {colliding} that already exist; remove "
                "the old revision in the same delta to model an edit"
            )
        kept = devices[:]
        appended: list[Device] = []
        for device in self.add_devices:
            slot = positions.get(device.name)
            if slot is None:
                appended.append(seal_device(device))
            else:
                kept[slot] = seal_device(device)
        dropped = sorted(positions[name] for name in
                         removed.difference(d.name for d in self.add_devices))
        if dropped or appended:
            # Copy on write: the revision ``circuit`` keeps its own index.
            positions = dict(positions)
            for slot in reversed(dropped):
                del positions[kept.pop(slot).name]
            if dropped:
                first = dropped[0]
                positions.update(zip([d.name for d in kept[first:]], range(first, len(kept))))
            positions.update(zip([d.name for d in appended],
                                 range(len(kept), len(kept) + len(appended))))
            kept += appended
        result = Circuit(flat.name, ports=list(flat.ports))
        result.devices = _Revision(kept, positions)
        return result

    @classmethod
    def between(cls, old: Circuit, new: Circuit) -> "NetlistDelta":
        """The delta turning flat ``old`` into flat ``new``.

        Devices are matched by name; a device present in both revisions but
        differing in any field (type, terminals, geometry) becomes a
        remove + add pair.  A sealed device and its unsealed copy are the
        same device.  Hierarchical inputs are flattened first, so two
        revisions of a hierarchical design diff in their flat namespace.
        A delta edits devices only, so revisions whose top-level port lists
        differ raise :class:`ValueError` naming the ports.  When ``new``
        keeps the shared names in ``old``'s order and lists its new names
        last, as an edited netlist file of in-place edits does, the delta
        applied to ``old`` lists its devices in ``new``'s order.
        """
        old_flat = old if old.is_flat else old.flatten()
        new_flat = new if new.is_flat else new.flatten()
        if old_flat.ports != new_flat.ports:
            raise ValueError(
                f"port list changed from {old_flat.ports} to {new_flat.ports}; a "
                "netlist delta edits devices only, so annotate the new revision "
                "from scratch"
            )
        old_by_name = {device.name: device for device in old_flat.devices}
        new_by_name = {device.name: device for device in new_flat.devices}
        remove: list[str] = []
        add: list[Device] = []
        for name, device in old_by_name.items():
            replacement = new_by_name.get(name)
            if replacement is None:
                remove.append(name)
            elif replacement != device:  # device __eq__ compares types too
                remove.append(name)
                add.append(copy_device(replacement))
        for name, device in new_by_name.items():
            if name not in old_by_name:
                add.append(copy_device(device))
        return cls(add_devices=add, remove_devices=remove)

    def __repr__(self) -> str:
        return (f"NetlistDelta(add={len(self.add_devices)}, "
                f"remove={len(self.remove_devices)})")


class _Revision(list):
    """The device list of a revision built by :meth:`NetlistDelta.apply`.

    Every device is sealed and ``_positions`` maps each device name to its
    position.  An in-place edit of the list sets ``_positions`` to ``None``,
    so the index can never go stale; a copy or a pickle is a plain list.
    """

    __slots__ = ("_positions",)

    def __init__(self, devices: list[Device], positions: dict[str, int]):
        super().__init__(devices)
        self._positions = positions

    def __reduce__(self):
        return list, (list(self),)


def _dropping_index(method):
    def edit(self, *args, **kwargs):
        self._positions = None
        return method(self, *args, **kwargs)
    edit.__name__ = method.__name__
    return edit


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(_Revision, _name, _dropping_index(getattr(list, _name)))
del _name
