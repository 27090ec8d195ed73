"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Each workload gets a tiny smoke run through the real command; an injected
corrupted record must count as a failed op; traced spans plus the
unattributed remainder must add up to the op time.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402

WORKLOADS = ("annotate_local", "serve_http", "chip_eco", "train_link")


def run_command(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    done = run_command("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "annotate_local",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_corrupted_record_counts_as_failed_op(monkeypatch):
    import annotate_local
    from repro.core import AnnotationEngine

    original = AnnotationEngine.build_records
    calls = []

    def corrupt_fifth_call(self, *args, **kwargs):
        records = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == 5:  # the second timed op (three warm-up ops first)
            records[0]["coupling_probability"] = 1.5
        return records

    monkeypatch.setattr(AnnotationEngine, "build_records", corrupt_fifth_call)
    outcome = annotate_local.run(seed=5, seconds=1.0, trace=False, size="tiny")
    assert outcome.attempted >= 2
    assert outcome.failed == 1
    assert "outside [0, 1]" in outcome.failures[0]


def test_spans_plus_unattributed_equal_op_time():
    tracer = harness.Tracer()
    with tracer.span("setup.load_s"):
        time.sleep(0.002)
    for _ in range(3):
        with tracer.op():
            with tracer.span("graph.build_s"):
                time.sleep(0.003)
            time.sleep(0.002)  # unattributed
            with tracer.span("models.link_forward_s"):
                time.sleep(0.001)
    ledger = tracer.ledger()
    attributed = ledger["graph.build_s"] + ledger["models.link_forward_s"]
    assert attributed + ledger["trace.unattributed_s"] == pytest.approx(tracer.op_seconds,
                                                                        abs=1e-12)
    assert ledger["trace.unattributed_s"] >= 0.006
    assert ledger["setup.load_share"] == 1.0
    assert tracer.ops == 3


def test_window_spreads_setup_samples_over_the_run():
    calls = []
    window = harness.Window(lambda: calls.append(time.perf_counter()) or len(calls),
                            seconds=0.2, pace=harness.Pace(), samples=5, repeats=2)
    assert window.result == 2 and len(window.setup_times) == 1
    window.open()
    start = time.perf_counter()
    while window.running():
        time.sleep(0.005)
    wall = time.perf_counter() - start
    assert len(window.setup_times) == 5 and len(calls) == 10
    # Samples land inside the window and do not eat into its 0.2 s of ops.
    assert calls[2] > calls[1] + 0.02
    assert wall >= 0.2 + 2 * sum(window.wall_times[1:])
    assert window.setup_s == pytest.approx(sorted(window.setup_times)[2])


def test_calibrate_divides_out_host_speed():
    # The host runs twice as slow for the second half: ops and probes double.
    pace = harness.Pace()
    ops = [0.1] * 30 + [0.2] * 30
    probes = [pace.reference_s] * 30 + [2 * pace.reference_s] * 30
    assert pace.calibrate(ops, probes, radius=0) == pytest.approx([0.1] * 60)
    smoothed = pace.calibrate(ops, probes, radius=10)
    assert smoothed[:20] == pytest.approx([0.1] * 20)
    assert smoothed[-20:] == pytest.approx([0.1] * 20)
    with pytest.raises(ValueError):
        pace.calibrate(ops, probes[:-1])
    assert 0.0 < pace.probe(3) < harness.Pace(walk=1000).probe(3) < 1.0


def test_window_scales_setup_by_the_probes_before_it():
    class HalfSpeed(harness.Pace):
        def probe(self, repeats=1):
            return 2 * self.reference_s

    window = harness.Window(lambda: time.sleep(0.01), seconds=0.0, pace=HalfSpeed(),
                            samples=1)
    assert window.setup_s == pytest.approx(window.wall_setup_s / 2)


def test_traced_workload_shares_cover_the_op():
    import annotate_local

    outcome = annotate_local.run(seed=6, seconds=1.0, trace=True, size="tiny")
    assert outcome.failed == 0
    shares = [value for name, value in outcome.metrics.items()
              if name.endswith("_share") and not name.startswith("setup.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert outcome.metrics["models.link_forward_s"] > 0
