"""Shared machinery of the benchmark: environment, checkpoint, spans, results.

Everything here is benchmark-side: it times calls into :mod:`repro` from the
outside and never patches the program.  Workload modules use

* :func:`pinned_env` / :func:`environment` — one BLAS thread and a fixed
  hash seed everywhere, and the record of what the numbers were measured on;
* :func:`checkpoint_path` — the serving checkpoint, built once per source tree
  with ``repro.api.fit`` + ``save`` in a child process and cached;
* :class:`Pace` — the host's speed, probed next to every op, and op times
  scaled to a reference host;
* :class:`Window` — the timed window of a run, with set-up re-timed across it;
* :class:`Tracer` — spans around layer calls, grouped per operation, with the
  unattributed remainder of each operation kept;
* :class:`Outcome` — attempted/failed counts plus the metrics a workload
  measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".perfbench_cache"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The serving model: small enough that an annotate op (200 candidates) takes
# ~0.17 s on one core, so a 20 s run holds >= 100 ops.  Extraction is
# deterministic (``max_nodes_per_hop: None``), which makes every parity check
# exact.
CHECKPOINT_SPEC = {
    "name": "perfbench",
    "backbone": {"type": "circuitgps", "dim": 32, "num_layers": 1},
    "task": {"type": "edge_regression"},
    "mode": "all",
    "train": {"epochs": 1, "batch_size": 64, "seed": 0},
    "data": {"max_nodes_per_hop": None, "max_links_per_design": 40, "scale": 0.25},
}
CHECKPOINT_DESIGNS = ("SSRAM", "ULTRA8T")


def pinned_env() -> dict:
    """The environment for every process the benchmark starts.

    One BLAS thread, and a fixed string-hash seed, which makes set and dict
    iteration order, and with it the order work is done in, repeat from run
    to run.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not path else f"{SRC}{os.pathsep}{path}"
    return env


def environment() -> dict:
    """What a result was measured on: CPUs, thread env, numpy and BLAS."""
    blas = "unknown"
    with contextlib.suppress(Exception):
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    return {
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _source_digest() -> str:
    digest = hashlib.sha256(json.dumps(CHECKPOINT_SPEC, sort_keys=True).encode())
    digest.update(json.dumps(CHECKPOINT_DESIGNS).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_checkpoint(out_dir: str) -> None:
    """Train the serving checkpoint with the public API and save it."""
    import repro.api as api
    from repro.core import DesignData

    designs = [DesignData.build(name, scale=0.25, seed=0) for name in CHECKPOINT_DESIGNS]
    api.fit(CHECKPOINT_SPEC, designs=designs).save(out_dir)


def checkpoint_path() -> pathlib.Path:
    """The cached serving checkpoint for this source tree (built on first use).

    Training runs in a child process so its memory never shows in a
    workload's peak RSS.  ``run.py`` calls this before it starts the
    workload process, so the training child is never among the workload's
    waited-for children either (see :func:`children_peak_rss_mb`).
    """
    target = CACHE_DIR / f"ckpt-{_source_digest()}"
    artifact = target / "pipeline.npz"
    if artifact.exists():
        return artifact
    CACHE_DIR.mkdir(exist_ok=True)
    staging = CACHE_DIR / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()),
                    "build-checkpoint", str(staging)],
                   env=pinned_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    if not artifact.exists():
        os.replace(staging, target)
    shutil.rmtree(staging, ignore_errors=True)
    return artifact


def load_engine(artifact, **kwargs):
    """Checkpoint -> :class:`~repro.core.AnnotationEngine` via ``repro.api.load``."""
    import repro.api as api
    from repro.core import AnnotationEngine

    return AnnotationEngine(api.load(artifact), **kwargs)


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process, in MiB.

    This covers every descendant the process has waited for, so it is only
    the shard workers' peak in a workload process that started no other
    child; ``run.py`` builds the checkpoint before starting that process.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def latency_summary(durations) -> dict:
    """p50/p90 plus the sample count behind them."""
    p50, p90 = (float(p) for p in np.percentile(durations, [50, 90]))
    return {"latency_p50_s": p50, "latency_p90_s": p90,
            "ops": len(durations), "beyond_p90": sum(1 for d in durations if d > p90)}


def block_rate(work, durations, blocks: int = 5) -> float:
    """Work per second as the median over ``blocks`` consecutive op groups.

    A stall from another tenant of the machine then moves one block, not
    the reported rate.
    """
    size = max(1, len(durations) // blocks)
    groups = [slice(start, start + size) for start in range(0, len(durations), size)]
    if len(groups) > 1 and len(durations) % size:
        groups[-2] = slice(groups[-2].start, None)  # fold the short tail in
        groups.pop()
    return float(np.median([sum(work[g]) / sum(durations[g]) for g in groups]))


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
# Time of one Pace probe, without and with a 1000-device walk, in a fast
# phase of the host the bounds were set on (2-vCPU Xeon VM, one BLAS thread,
# numpy 2.4).  Scaled times read as seconds on that host at that speed.
REFERENCE_S = {0: 0.0036, 1000: 0.0069}


class Pace:
    """The host's speed, probed next to every op with a fixed reference task.

    The host runs the same code up to ~2x slower in phases that last from
    a fraction of a second to many minutes (the other tenants of the
    machine), so whole runs, not just single ops, land in slow or fast
    phases, and no run length or median within a run absorbs that.  A probe
    times a fixed task of a few ms made of the kind of work the workload's
    ops spend their time in; it calls nothing in :mod:`repro`, so no change
    to the program moves it, and :meth:`calibrate` divides it out of the op
    times.

    The task always runs interpreted Python over strings, dicts and lists
    and small numpy calls (matmul, element-wise, bincount, argsort, gather):
    the mix of parsing and model forwards.  With ``walk`` devices it also
    builds a netlist-like adjacency of that many 4-terminal devices and
    walks 3 hops out from 20 of them: the pointer chasing of flatten, graph
    build and k-hop.  Across the host's phases, chip_eco's ECO ops moved
    ~1.4x as much as the first part alone (in log time), and about as much
    as the two parts together; annotate ops moved about as much as the
    first part alone.
    """

    def __init__(self, walk: int = 0):
        self.reference_s = REFERENCE_S[walk]
        rng = np.random.default_rng(0)
        self._keys = [f"n{i % 97}=d{i}" for i in range(2000)]
        self._x = rng.standard_normal((96, 32))
        self._w = rng.standard_normal((32, 32)) / 6.0
        self._index = rng.integers(0, 96, 20000)
        self._devices = [(f"M{i}", [f"n{int(j)}" for j in rng.integers(0, max(1, walk // 2), 4)])
                         for i in range(walk)]

    def _task(self) -> float:
        nets: dict[str, list] = {}
        for i, key in enumerate(self._keys):
            name, _, value = key.partition("=")
            nets.setdefault(name, []).append((i, value.upper()))
        h = self._x
        for _ in range(40):
            h = np.maximum(h @ self._w, 0.0)
            h = h / (1.0 + np.abs(h).sum(axis=1, keepdims=True))
        order = np.argsort(self._index, kind="stable")
        return (sum(len(v) for v in nets.values()) + float(h.sum())
                + float(np.bincount(self._index).max())
                + float(self._x[self._index[order]].sum()) + self._walk())

    def _walk(self) -> int:
        if not self._devices:
            return 0
        adjacency: dict[str, list] = {}
        for name, nets in self._devices:
            for terminal, net in enumerate(nets):
                node = f"{name}:{terminal}"
                adjacency.setdefault(name, []).append(node)
                adjacency.setdefault(node, []).extend((name, net))
                adjacency.setdefault(net, []).append(node)
        step = max(1, len(self._devices) // 20)
        frontier = [name for name, _ in self._devices[::step]]
        seen = set(frontier)
        for _ in range(3):
            frontier = [other for node in frontier for other in adjacency[node]
                        if not (other in seen or seen.add(other))]
        return len(seen)

    def probe(self, repeats: int = 1) -> float:
        """Mean wall time of ``repeats`` runs of the reference task."""
        start = time.perf_counter()
        for _ in range(repeats):
            self._task()
        return (time.perf_counter() - start) / repeats

    def calibrate(self, durations, probes, radius: int = 5) -> list[float]:
        """Op wall times scaled to the reference host: ``d * reference_s / speed``.

        ``probes[i]`` was taken next to op ``i``; ``speed`` is the mean of
        the probes within ``radius`` ops of it.  The mean, not the median,
        because a probe that the host preempts takes the same share of time
        from the ops around it.  Over 5 s blocks of annotate_local and
        chip_eco runs on a 2-vCPU VM, the block p50 varied least at a radius
        of 5 (quartile spread 0.07-0.08 of its median, against 0.10-0.16 at
        10 and 0.10-0.13 at 0, where one probe's jitter moves its op); the
        block p90 varied 0.04-0.11 at every radius.
        """
        if len(durations) != len(probes):
            raise ValueError(f"{len(durations)} ops but {len(probes)} probes")
        sums = np.concatenate([[0.0], np.cumsum(probes)])
        out = []
        for i, duration in enumerate(durations):
            lo, hi = max(0, i - radius), min(len(probes), i + radius + 1)
            out.append(duration * self.reference_s * (hi - lo) / (sums[hi] - sums[lo]))
        return out

    def wall_notes(self, setup_s: float, work, durations, probes) -> dict:
        """The unscaled wall-clock figures of a run, and the host's mean speed
        relative to the reference host (above 1: faster), for the notes line."""
        summary = latency_summary(durations)
        return {"setup_s": setup_s, "links_per_s": block_rate(work, durations),
                "latency_p50_s": summary["latency_p50_s"],
                "latency_p90_s": summary["latency_p90_s"],
                "host_speed": self.reference_s / float(np.mean(probes))}


class Window:
    """The timed window of a run, with the set-up re-timed across it.

    ``setup()`` is timed once on construction (its result is :attr:`result`)
    and again at ``samples - 1`` evenly spaced points of the window, the last
    at its end; the window is stretched by the time those take, so ops keep
    their full ``seconds``.  One sample times ``repeats`` set-ups back to
    back and keeps their mean, so a short set-up is timed as a larger unit.
    Samples spread like this see the same mix of host phases as the ops,
    where set-ups timed back to back before the window all land in one.
    Each sample is scaled to the reference host by the mean of ``PROBES``
    ``pace`` probes taken just before it, as :meth:`Pace.calibrate` scales
    ops, and :attr:`wall_times` keeps the unscaled ones.  :attr:`setup_s` is
    the median sample.
    """

    PROBES = 5

    def __init__(self, setup, seconds: float, pace: Pace, samples: int = 5,
                 repeats: int = 1):
        self.setup, self.seconds = setup, seconds
        self.samples, self.repeats, self.pace = samples, repeats, pace
        self.setup_times: list[float] = []
        self.wall_times: list[float] = []
        self.result = self._sample()
        self._start = self._paused = 0.0

    def _sample(self):
        scale = self.pace.reference_s / self.pace.probe(self.PROBES)
        start = time.perf_counter()
        for _ in range(self.repeats):
            result = self.setup()
        self.wall_times.append((time.perf_counter() - start) / self.repeats)
        self.setup_times.append(self.wall_times[-1] * scale)
        return result

    def open(self) -> None:
        """Start the window (after warm-up)."""
        self._start, self._paused = time.perf_counter(), 0.0

    def running(self) -> bool:
        """True while the window lasts; takes the set-up samples due."""
        elapsed = time.perf_counter() - self._start - self._paused
        due = min(self.samples, 1 + int(elapsed / self.seconds * (self.samples - 1)))
        while len(self.setup_times) < due:
            start = time.perf_counter()
            self._sample()
            self._paused += time.perf_counter() - start
        return elapsed < self.seconds

    @property
    def setup_s(self) -> float:
        return float(np.median(self.setup_times))

    @property
    def wall_setup_s(self) -> float:
        return float(np.median(self.wall_times))


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class Tracer:
    """Spans around layer calls, kept in memory and summed per name.

    Spans opened inside :meth:`op` are that operation's layer spans; the
    operation's time not covered by them is its unattributed remainder, so
    ``sum(layer spans) + unattributed == op time`` holds exactly.  Spans
    opened outside any op (set-up work) are summed on their own.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.op_totals: dict[str, float] = {}
        self.setup_totals: dict[str, float] = {}
        self.op_seconds = 0.0
        self.setup_seconds = 0.0
        self.unattributed = 0.0
        self.ops = 0
        self._open: list[str] = []
        self._covered = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((name, start, end, parent))
            if parent == "op":
                self.op_totals[name] = self.op_totals.get(name, 0.0) + end - start
                self._covered += end - start
            elif parent is None and name != "op":
                self.setup_totals[name] = self.setup_totals.get(name, 0.0) + end - start
                self.setup_seconds += end - start

    @contextlib.contextmanager
    def op(self):
        """One operation: its direct child spans attribute its time."""
        if self._open:
            raise RuntimeError("ops do not nest")
        self._covered = 0.0
        with self.span("op"):
            yield
        _, start, end, _ = self.spans[-1]
        self.ops += 1
        self.op_seconds += end - start
        self.unattributed += (end - start) - self._covered

    def ledger(self) -> dict:
        """Per-layer seconds and shares (op spans: of op time; set-up spans:
        of set-up time), plus the unattributed remainder."""
        clash = set(self.op_totals) & set(self.setup_totals)
        if clash:
            raise ValueError(f"spans {sorted(clash)} used both in and outside ops")
        out = {}
        for totals, base in ((self.op_totals, self.op_seconds),
                             (self.setup_totals, self.setup_seconds)):
            for name, seconds in totals.items():
                out[name] = seconds
                out[name[:-2] + "_share"] = seconds / base if base else 0.0
        out["trace.unattributed_s"] = self.unattributed
        out["trace.unattributed_share"] = (self.unattributed / self.op_seconds
                                           if self.op_seconds else 0.0)
        return out


# --------------------------------------------------------------------------- #
# Outcome
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run measured and how many of its ops failed."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        """Count one failed op (a failed output check counts as one)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "build-checkpoint":
        build_checkpoint(sys.argv[2])
    else:
        raise SystemExit("usage: harness.py build-checkpoint OUT_DIR")
