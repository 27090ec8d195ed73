"""Machine-readable benchmark records and regression comparison.

The benchmark harness under ``benchmarks/`` emits one ``BENCH_<area>.json``
file per performance area (op micro-benchmarks, train-step throughput, serve
throughput, parallel scaling, ...) through :class:`BenchRecorder`.  Every
metric carries its unit and a ``direction`` (``"higher"`` or ``"lower"`` is
better), so two files from different commits can be diffed mechanically::

    python -m repro bench --compare OLD.json NEW.json [--threshold 0.10]

exits nonzero when any shared metric regressed by more than the threshold —
the informational perf gate wired into CI.  Committed trajectory points live
under ``benchmarks/trajectory/`` (the runtime output directory
``benchmarks/results/`` is gitignored).
"""

from __future__ import annotations

import json
import pathlib
import platform
import resource
import sys
import time

import numpy as np

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchRecorder",
    "load_bench",
    "compare_benchmarks",
    "peak_rss_mb",
]

BENCH_SCHEMA = "repro-bench"
BENCH_SCHEMA_VERSION = 1
DIRECTIONS = ("higher", "lower")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: ru_maxrss is KiB)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        rss_kib /= 1024.0
    return float(rss_kib) / 1024.0


class BenchRecorder:
    """Collects metrics for one benchmark area and writes ``BENCH_<area>.json``.

    >>> rec = BenchRecorder("serve", out_dir="benchmarks/results")
    >>> rec.record("annotate_links_per_s", 123.4, unit="links/s")
    >>> rec.record("annotate_latency_s", 0.81, unit="s", direction="lower")
    >>> rec.write()  # doctest: +SKIP
    """

    def __init__(self, area: str, out_dir=None):
        if not area or not area.replace("_", "").isalnum():
            raise ValueError(f"bench area must be a short slug, got {area!r}")
        self.area = str(area)
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None else None
        self.metrics: dict[str, dict] = {}
        self.meta: dict = {}

    def record(self, name: str, value: float, unit: str = "",
               direction: str = "higher", **extra) -> dict:
        """Add one metric; ``direction`` says which way is better."""
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        entry = {"value": float(value), "unit": str(unit), "direction": direction}
        if extra:
            entry.update({key: val for key, val in sorted(extra.items())})
        self.metrics[str(name)] = entry
        return entry

    def add_meta(self, **fields) -> None:
        """Attach free-form context (preset, sizes) to the record."""
        self.meta.update(fields)

    def payload(self) -> dict:
        """The JSON document (schema-stamped, environment-annotated)."""
        return {
            "schema": BENCH_SCHEMA,
            "version": BENCH_SCHEMA_VERSION,
            "area": self.area,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
                "peak_rss_mb": round(peak_rss_mb(), 2),
            },
            "meta": dict(self.meta),
            "metrics": {name: self.metrics[name] for name in sorted(self.metrics)},
        }

    def write(self, out_dir=None) -> pathlib.Path:
        """Write ``BENCH_<area>.json`` under ``out_dir`` (or the constructor's)."""
        target = pathlib.Path(out_dir) if out_dir is not None else self.out_dir
        if target is None:
            raise ValueError("no output directory given")
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"BENCH_{self.area}.json"
        path.write_text(json.dumps(self.payload(), indent=2, sort_keys=True) + "\n")
        return path


def load_bench(path) -> dict:
    """Load and schema-check one ``BENCH_*.json`` file."""
    path = pathlib.Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path} is not a {BENCH_SCHEMA!r} record")
    version = payload.get("version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has bench schema version {version!r}; "
            f"this build reads version {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("metrics"), dict):
        raise ValueError(f"{path} has no 'metrics' mapping")
    return payload


def compare_benchmarks(old: dict, new: dict, threshold: float = 0.10) -> list[dict]:
    """Diff two bench payloads; one row per metric, worst regressions first.

    A metric regresses when it moves against its ``direction`` by more than
    ``threshold`` (relative).  Rows carry ``status`` in ``{"regressed",
    "improved", "ok", "old-only", "new-only"}`` and ``change`` as the signed
    relative delta (positive = value went up).  Metrics present in only one
    file are reported but never fail the comparison.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    old_metrics, new_metrics = old["metrics"], new["metrics"]
    rows = []
    for name in sorted(set(old_metrics) | set(new_metrics)):
        before, after = old_metrics.get(name), new_metrics.get(name)
        if before is None or after is None:
            rows.append({"metric": name, "status": "old-only" if after is None else "new-only",
                         "old": before and before["value"], "new": after and after["value"],
                         "change": None})
            continue
        direction = after.get("direction", before.get("direction", "higher"))
        old_value, new_value = float(before["value"]), float(after["value"])
        change = ((new_value - old_value) / abs(old_value)) if old_value else 0.0
        against = -change if direction == "higher" else change
        if against > threshold:
            status = "regressed"
        elif against < -threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append({"metric": name, "status": status, "old": old_value,
                     "new": new_value, "change": change,
                     "direction": direction, "unit": after.get("unit", "")})
    severity = {"regressed": 0, "improved": 1, "ok": 2, "old-only": 3, "new-only": 3}
    rows.sort(key=lambda row: (severity[row["status"]],
                               -abs(row["change"] or 0.0), row["metric"]))
    return rows
