#!/usr/bin/env python
"""End-to-end exercise of the annotation daemon as a real subprocess.

CI's ``serve-e2e`` job runs this script.  It covers the full service
lifecycle the unit suite can't: the actual ``python -m repro serve``
entrypoint loading a saved artifact, concurrent requests from separate
client threads against the live port, ``/healthz`` and ``/metrics``
over the wire, the CLI's ``annotate --remote`` path, and a graceful
SIGTERM drain with requests still in flight.

Usage::

    python scripts/serve_e2e.py

Exits 0 on success; any failure raises (non-zero exit).
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model  # noqa: E402
from repro.core.cli import main as cli_main  # noqa: E402
from repro.core.server import ServeClient  # noqa: E402
from repro.netlist import ssram, write_spice  # noqa: E402
from repro.utils import seed_all  # noqa: E402

STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
DRAIN_DESIGNS = 16


def log(message: str) -> None:
    print(f"[serve-e2e] {message}", flush=True)


def build_artifact(root: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    """Save a deterministic tiny pipeline plus the netlist it annotates."""
    seed_all(0)
    config = (
        ExperimentConfig.fast()
        .with_model(dim=16, num_layers=1, pe_hidden=4, dropout=0.0,
                    attention="none")
        .with_data(max_nodes_per_hop=None)
    )
    pipeline = CircuitGPSPipeline.from_models(
        config,
        build_model(config, rng=np.random.default_rng(0)),
        heads={("edge_regression", "all"):
               build_model(config, rng=np.random.default_rng(1))},
    )
    checkpoint = root / "ckpt"
    pipeline.save(checkpoint)
    circuit = ssram(rows=4, cols=2)
    circuit.name = "E2E_MACRO"
    netlist = root / "e2e_macro.sp"
    netlist.write_text(write_spice(circuit))
    return checkpoint, netlist


def start_daemon(checkpoint: pathlib.Path, *extra_args: str) -> tuple:
    """Spawn ``python -m repro serve`` and wait for its listening URL."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(checkpoint),
         "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    url = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"daemon exited during startup (rc={process.poll()})")
        if line.startswith("listening on "):
            url = line.split("listening on ", 1)[1].strip()
            break
    if url is None:
        process.kill()
        raise RuntimeError("daemon never printed its listening URL")
    return process, url


def stop_daemon(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=SHUTDOWN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        raise RuntimeError("daemon did not drain and exit after SIGTERM")
    return process.returncode


def check_health_and_concurrency(url: str, netlist: pathlib.Path) -> None:
    client = ServeClient(url, timeout=60.0)

    health = client.healthz()
    assert health["status"] == "ok", health
    assert health["precision"], health
    log(f"healthz ok (backend={health.get('backend')}, "
        f"precision={health['precision']})")

    spice = netlist.read_text()
    requests = [{"spice": spice, "name": "E2E_MACRO",
                 "max_candidates": 8, "seed": index % 3}
                for index in range(12)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        raws = list(pool.map(client.annotate_raw, requests))
    by_seed: dict[int, bytes] = {}
    for request, raw in zip(requests, raws):
        payload = json.loads(raw)
        assert payload["status"] == "ok", payload
        assert payload["design"] == "E2E_MACRO", payload
        reference = by_seed.setdefault(request["seed"], raw)
        assert raw == reference, "same request, different bytes"
    log(f"12 concurrent requests answered, {len(by_seed)} distinct seeds")

    metrics = client.metrics()
    assert metrics["requests_total"] >= 12, metrics
    assert metrics["designs_annotated_total"] == 12, metrics
    assert metrics["batches_total"] >= 1, metrics
    assert metrics["design_cache_hits_total"] >= 11, metrics
    assert metrics["errors_total"] == {}, metrics
    log(f"metrics ok (batches={metrics['batches_total']}, "
        f"max_batch={metrics['max_batch_observed']})")


def check_remote_cli(url: str, netlist: pathlib.Path,
                     scratch: pathlib.Path) -> None:
    out = scratch / "remote_report.json"
    code = cli_main(["annotate", "-", str(netlist), "--remote", url,
                     "--max-candidates", "6", "--seed", "1",
                     "--json", str(out)])
    assert code == 0, f"annotate --remote exited {code}"
    payload = json.loads(out.read_text())
    assert payload["status"] == "ok", payload
    assert payload["design"] == "e2e_macro", payload  # named from file stem
    assert payload["records"], payload
    log(f"annotate --remote ok ({len(payload['records'])} records)")


def check_graceful_drain(process: subprocess.Popen, url: str,
                         netlist: pathlib.Path) -> None:
    """SIGTERM with requests in flight: they finish, then the daemon exits."""
    client = ServeClient(url, timeout=60.0)
    spice = netlist.read_text()
    # Multi-design bodies: each request parses and scores DRAIN_DESIGNS
    # netlists, long enough that work is still running when SIGTERM lands.
    request = {"designs": [{"spice": spice, "name": f"DRAIN_{index}",
                            "max_candidates": 10}
                           for index in range(DRAIN_DESIGNS)],
               "seed": 9}

    def annotate(body: dict) -> tuple[bytes, float]:
        raw = client.annotate_raw(body)
        return raw, time.monotonic()

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(annotate, dict(request)) for _ in range(4)]
        # Catch the daemon with every request genuinely in flight.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.metrics()["in_flight"] >= len(futures):
                break
            time.sleep(0.01)
        else:
            raise RuntimeError("never observed all 4 requests in flight")
        signalled = time.monotonic()
        process.send_signal(signal.SIGTERM)
        results = [future.result(timeout=SHUTDOWN_TIMEOUT_S)
                   for future in futures]
    raws = [raw for raw, _ in results]
    for raw in raws:
        payload = json.loads(raw)
        assert len(payload["reports"]) == DRAIN_DESIGNS, payload
        for report in payload["reports"]:
            assert report["status"] == "ok", report
    assert raws.count(raws[0]) == len(raws)
    finished_after = sum(finished > signalled for _, finished in results)
    assert finished_after >= 1, (
        "every response finished before SIGTERM: the drain had nothing to do")
    process.wait(timeout=SHUTDOWN_TIMEOUT_S)
    assert process.returncode == 0, (
        f"daemon exited {process.returncode} after graceful drain")
    log(f"graceful SIGTERM drain ok (4 in-flight requests completed, "
        f"{finished_after} after the signal)")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve_e2e_") as scratch_name:
        scratch = pathlib.Path(scratch_name)
        checkpoint, netlist = build_artifact(scratch)
        log(f"artifact saved to {checkpoint}")

        process, url = start_daemon(checkpoint)
        log(f"daemon up at {url} (pid {process.pid})")
        try:
            check_health_and_concurrency(url, netlist)
            check_remote_cli(url, netlist, scratch)
        finally:
            if process.poll() is None:
                rc = stop_daemon(process)
                assert rc == 0, f"daemon exited {rc} on idle SIGTERM"
        log("idle SIGTERM shutdown ok")

        # A fresh daemon for the drain scenario.
        process, url = start_daemon(checkpoint)
        log(f"drain-test daemon up at {url} (pid {process.pid})")
        try:
            check_graceful_drain(process, url, netlist)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
                raise RuntimeError("drain-test daemon had to be killed")
    log("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
