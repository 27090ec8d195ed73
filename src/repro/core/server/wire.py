"""Canonical JSON serialisation for the annotation service wire protocol.

Two properties make the wire format reproducible enough to golden-test and
to compare byte-for-byte across serving modes:

* **Float quantization.**  The GPS trunk is batch-invariant, but the
  heads' last layer (one output column) runs as a GEMV whose rounding
  depends on the batch, so collating a subgraph into different batch
  compositions perturbs the float64 head outputs by ~1 ulp, and raw floats
  would differ between a request served alone and the same request
  coalesced into a shared cross-request batch.  Every float on
  the wire is therefore rounded to :data:`WIRE_FLOAT_DIGITS` significant
  digits — far above the noise floor, far below any physical meaning in a
  predicted coupling capacitance.
* **Canonical encoding.**  Keys are sorted and separators are fixed, so two
  equal payloads always serialise to the same bytes.

``benchmarks/test_serve_concurrent_throughput.py`` relies on this to assert
that concurrent micro-batched responses are byte-identical to sequential
per-request responses and to the local engine's records.
"""

from __future__ import annotations

import json

__all__ = ["WIRE_FLOAT_DIGITS", "canonical", "dumps_canonical", "error_payload"]

# Significant digits kept for every float that crosses the wire.  float64
# batch-composition noise sits at ~1e-16 relative; 10 digits absorbs it with
# six orders of magnitude to spare while keeping ~pF-resolution capacitances
# exact to well below a zeptofarad.
WIRE_FLOAT_DIGITS = 10


def canonical(value):
    """Recursively quantize floats to :data:`WIRE_FLOAT_DIGITS` digits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.{WIRE_FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def dumps_canonical(payload) -> bytes:
    """Canonical single-line JSON bytes (sorted keys, fixed separators)."""
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def error_payload(kind: str, message: str, **extra) -> dict:
    """The uniform error body: ``{"error": {"type": ..., "message": ...}}``."""
    error = {"type": kind, "message": message}
    error.update(extra)
    return {"error": error}
