"""SPICE / CDL netlist reader and writer.

The synthetic design generators emit real SPICE text and the graph pipeline
reads netlists back through this parser, so the repository exercises the same
netlist-conversion path the paper describes (schematic netlist in, graph out).

Supported syntax (the subset produced by typical schematic netlisters):

* ``.subckt <name> <ports...>`` / ``.ends`` blocks,
* primitive cards ``M`` (MOS), ``R``, ``C``, ``D`` and hierarchical ``X`` cards,
* ``key=value`` parameters with SI suffixes (``f p n u m k meg g t``),
* ``*`` comment lines, ``$``-style trailing comments and ``+`` continuations.
"""

from __future__ import annotations

import pathlib
import re

from .circuit import Circuit, Subckt
from .devices import Capacitor, Device, Diode, Mosfet, Resistor, SubcktInstance

__all__ = ["parse_spice", "parse_spice_file", "write_spice", "parse_si_value", "format_si_value"]

_SI_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

_VALUE_RE = re.compile(
    r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*(meg|[tgkmunpfa])?\s*[a-z]*\s*$",
    re.IGNORECASE,
)


def parse_si_value(text: str) -> float:
    """Parse a SPICE number with an optional SI suffix (``0.1u`` -> 1e-7)."""
    match = _VALUE_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse SPICE value {text!r}")
    value = float(match.group(1))
    suffix = (match.group(2) or "").lower()
    if suffix:
        value *= _SI_SUFFIXES[suffix]
    return value


def format_si_value(value: float) -> str:
    """Format a float using the largest SI suffix that keeps the mantissa >= 1."""
    if value == 0:
        return "0"
    for suffix, scale in (("t", 1e12), ("g", 1e9), ("meg", 1e6), ("k", 1e3), ("", 1.0),
                          ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12),
                          ("f", 1e-15), ("a", 1e-18)):
        if abs(value) >= scale:
            return f"{value / scale:.6g}{suffix}"
    return f"{value:.6g}"


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #
def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Strip comments and join ``+`` continuation lines.

    Each card comes with the 1-based number of its first physical line.
    """
    lines: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("$", 1)[0].rstrip()
        if not line or line.lstrip().startswith("*"):
            continue
        if line.lstrip().startswith("+") and lines:
            first, card = lines[-1]
            lines[-1] = (first, card + " " + line.lstrip()[1:].strip())
        else:
            lines.append((number, line.strip()))
    return lines


def _split_params(tokens: list[str]) -> tuple[list[str], dict[str, str]]:
    """Separate positional tokens from ``key=value`` parameters."""
    positional: list[str] = []
    params: dict[str, str] = {}
    for token in tokens:
        if "=" in token:
            key, value = token.split("=", 1)
            params[key.lower()] = value
        else:
            positional.append(token)
    return positional, params


def _get_param(params: dict[str, str], key: str, default: float) -> float:
    if key in params:
        return parse_si_value(params[key])
    return default


def _parse_card(line: str) -> Device | None:
    tokens = line.split()
    card = tokens[0]
    kind = card[0].upper()
    positional, params = _split_params(tokens[1:])

    if kind == "M":
        if len(positional) < 5:
            raise ValueError(f"malformed MOS card: {line!r}")
        drain, gate, source, bulk, model = positional[:5]
        polarity = "pmos" if "p" in model.lower() else "nmos"
        return Mosfet(
            name=card,
            terminals={"D": drain, "G": gate, "S": source, "B": bulk},
            polarity=polarity,
            width=_get_param(params, "w", 100e-9),
            length=_get_param(params, "l", 30e-9),
            multiplier=int(_get_param(params, "m", 1)),
            fingers=int(_get_param(params, "nf", 1)),
        )
    if kind == "R":
        if len(positional) < 2:
            raise ValueError(f"malformed resistor card: {line!r}")
        pos, neg = positional[:2]
        value = parse_si_value(positional[2]) if len(positional) > 2 else _get_param(params, "r", 1e3)
        return Resistor(
            name=card,
            terminals={"P": pos, "N": neg},
            resistance=value,
            width=_get_param(params, "w", 200e-9),
            length=_get_param(params, "l", 1e-6),
            multiplier=int(_get_param(params, "m", 1)),
        )
    if kind == "C":
        if len(positional) < 2:
            raise ValueError(f"malformed capacitor card: {line!r}")
        pos, neg = positional[:2]
        value = parse_si_value(positional[2]) if len(positional) > 2 else _get_param(params, "c", 1e-15)
        return Capacitor(
            name=card,
            terminals={"P": pos, "N": neg},
            capacitance=value,
            width=_get_param(params, "w", 500e-9),
            length=_get_param(params, "l", 2e-6),
            fingers=int(_get_param(params, "nf", 4)),
            multiplier=int(_get_param(params, "m", 1)),
        )
    if kind == "D":
        if len(positional) < 2:
            raise ValueError(f"malformed diode card: {line!r}")
        pos, neg = positional[:2]
        return Diode(
            name=card,
            terminals={"P": pos, "N": neg},
            area=_get_param(params, "area", 1e-12),
            multiplier=int(_get_param(params, "m", 1)),
        )
    if kind == "X":
        if len(positional) < 2:
            raise ValueError(f"malformed subckt instance card: {line!r}")
        *connections, subckt_name = positional
        return SubcktInstance(
            name=card,
            terminals={},
            subckt_name=subckt_name,
            connections=list(connections),
        )
    # Unknown card types (V/I sources, .option, ...) are ignored by the graph flow.
    return None


def parse_spice(text: str, name: str = "top") -> Circuit:
    """Parse SPICE text into a (possibly hierarchical) :class:`Circuit`.

    Device names are unique per scope (the top level, or one ``.subckt``
    body); a repeated name raises ``ValueError`` with both line numbers.
    The same name in two different subckts is legal.
    """
    circuit = Circuit(name)
    current: Subckt | None = None
    seen: dict[str, int] = {}  # device name -> line, in the current scope
    top_seen = seen
    for number, line in _logical_lines(text):
        lowered = line.lower()
        if lowered.startswith(".subckt"):
            tokens = line.split()
            if len(tokens) < 2:
                raise ValueError(f"malformed .subckt line: {line!r}")
            current = Subckt(name=tokens[1], ports=tokens[2:])
            seen = {}
            continue
        if lowered.startswith(".ends"):
            if current is None:
                raise ValueError(".ends without matching .subckt")
            circuit.define_subckt(current)
            current = None
            seen = top_seen
            continue
        if lowered.startswith(".global") or lowered.startswith(".param"):
            continue
        if lowered.startswith(".end"):
            break
        if lowered.startswith("."):
            continue
        device = _parse_card(line)
        if device is None:
            continue
        if device.name in seen:
            scope = "the top level" if current is None else f".subckt {current.name!r}"
            raise ValueError(
                f"duplicate device name {device.name!r} in {scope}: line "
                f"{number} repeats the device of line {seen[device.name]}"
            )
        seen[device.name] = number
        if current is not None:
            current.add(device)
        else:
            circuit.add(device)
    if current is not None:
        raise ValueError(f"unterminated .subckt {current.name!r}")
    return circuit


def parse_spice_file(path, name: str | None = None) -> Circuit:
    """Parse a SPICE/CDL netlist file from disk (see :func:`parse_spice`)."""
    path = pathlib.Path(path)
    return parse_spice(path.read_text(), name=name or path.stem)


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
def _card_name(device: Device, letter: str) -> str:
    """SPICE card names must start with the device-type letter.

    Flattened hierarchical devices keep their instance path (``XBUF1/MN2``),
    which would otherwise be misread as a subckt instance card, so the type
    letter is prepended when missing.
    """
    name = device.name
    return name if name[:1].upper() == letter else f"{letter}{name}"


def _device_card(device: Device) -> str:
    if isinstance(device, Mosfet):
        t = device.terminals
        model = "pch" if device.polarity == "pmos" else "nch"
        return (
            f"{_card_name(device, 'M')} {t['D']} {t['G']} {t['S']} {t['B']} {model} "
            f"W={format_si_value(device.width)} L={format_si_value(device.length)} "
            f"M={device.multiplier} NF={device.fingers}"
        )
    if isinstance(device, Resistor):
        t = device.terminals
        return (
            f"{_card_name(device, 'R')} {t['P']} {t['N']} {format_si_value(device.resistance)} "
            f"W={format_si_value(device.width)} L={format_si_value(device.length)} "
            f"M={device.multiplier}"
        )
    if isinstance(device, Capacitor):
        t = device.terminals
        return (
            f"{_card_name(device, 'C')} {t['P']} {t['N']} {format_si_value(device.capacitance)} "
            f"W={format_si_value(device.width)} L={format_si_value(device.length)} "
            f"NF={device.fingers} M={device.multiplier}"
        )
    if isinstance(device, Diode):
        t = device.terminals
        return (
            f"{_card_name(device, 'D')} {t['P']} {t['N']} dnwell "
            f"AREA={device.area:.6g} M={device.multiplier}"
        )
    if isinstance(device, SubcktInstance):
        return f"{_card_name(device, 'X')} {' '.join(device.connections)} {device.subckt_name}"
    raise TypeError(f"cannot write device of type {type(device)!r}")


def write_spice(circuit: Circuit, trailer_cards: list[str] | None = None) -> str:
    """Serialise a :class:`Circuit` (including subckt definitions) to SPICE text.

    ``trailer_cards`` are extra card or comment lines appended verbatim just
    before the final ``.end`` — the annotation engine uses this to emit
    predicted coupling capacitors after the circuit's own cards.
    """
    lines = [f"* Netlist of {circuit.name} (generated by repro.netlist)"]
    for subckt in circuit.subckts.values():
        lines.append(f".subckt {subckt.name} {' '.join(subckt.ports)}")
        for device in subckt.devices:
            lines.append(_device_card(device))
        for instance in subckt.instances:
            lines.append(_device_card(instance))
        lines.append(".ends")
    for device in circuit.devices:
        lines.append(_device_card(device))
    for instance in circuit.instances:
        lines.append(_device_card(instance))
    lines.extend(trailer_cards or [])
    lines.append(".end")
    return "\n".join(lines) + "\n"
