"""Golden-file tests pinning the annotation service's wire protocol.

The committed files under ``tests/golden/`` are the protocol contract:

* ``serve_annotate_request.json``  — the client's request body,
* ``serve_annotate_response.json`` — a single-design response payload,
* ``serve_stream_chunks.ndjson``   — a streamed multi-design response
  (one ok report, one error report, the final ``done`` event),
* ``serve_healthz.json``           — the ``/healthz`` schema,
* ``serve_metrics.json``           — the ``/metrics`` schema after a fixed
  request sequence against a fresh daemon.

Volatile fields (uptime, wall-clock timestamps, latency measurements) are
zeroed and floats re-rounded to 6 significant digits before comparison, the
same normalisation as ``tests/test_golden.py``.  Refresh after an intended
protocol change with::

    PYTHONPATH=src python -m pytest tests/core/test_server_wire_golden.py --update-golden
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core import CircuitGPSPipeline, ExperimentConfig, build_model
from repro.core.serve import AnnotationEngine
from repro.core.server import ServeClient, ServerConfig, ThreadedServer
from repro.netlist import ssram, write_spice
from repro.utils import seed_all

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
REQUEST_GOLDEN = GOLDEN_DIR / "serve_annotate_request.json"
RESPONSE_GOLDEN = GOLDEN_DIR / "serve_annotate_response.json"
STREAM_GOLDEN = GOLDEN_DIR / "serve_stream_chunks.ndjson"
HEALTHZ_GOLDEN = GOLDEN_DIR / "serve_healthz.json"
METRICS_GOLDEN = GOLDEN_DIR / "serve_metrics.json"

PAIRS = [["BL0", "BL1"], ["BL0", "BLB0"], ["WL0", "WL1"]]

# Fields whose values are wall-clock dependent, zeroed before comparison.
VOLATILE = ("uptime_seconds", "started_unix", "sum_seconds",
            "p50_seconds", "p95_seconds")


def _normalize(value):
    """Zero volatile timing fields; round floats to 6 significant digits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {key: 0.0 if key in VOLATILE else _normalize(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_normalize(item) for item in value]
    return value


def _normalized_json(payload) -> str:
    return json.dumps(_normalize(payload), indent=2, sort_keys=True) + "\n"


def _check_golden(path: pathlib.Path, actual: str, update: bool) -> None:
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        return
    assert path.exists(), (
        f"golden file {path} is missing; create it with --update-golden"
    )
    assert actual == path.read_text(), (
        f"wire output differs from golden file {path.name}; if the protocol "
        "change is intended, refresh with: pytest "
        "tests/core/test_server_wire_golden.py --update-golden"
    )


def _golden_engine() -> AnnotationEngine:
    """The same deterministic serving pipeline as tests/test_golden.py."""
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
    return AnnotationEngine(pipeline, workers=0)


@pytest.fixture(scope="module")
def golden_spice() -> str:
    circuit = ssram(rows=4, cols=4)
    circuit.name = "GOLDEN_MACRO"
    return write_spice(circuit)


@pytest.fixture()
def golden_server():
    """A fresh daemon per test: /metrics counters must be exact."""
    # One client, one request at a time: the request sequence fully
    # determines every counter and histogram bucket.
    config = ServerConfig(port=0)
    with ThreadedServer(_golden_engine(), config) as threaded:
        yield ServeClient(threaded.url, timeout=30.0)


def _annotate_request(golden_spice: str) -> dict:
    return {"spice": golden_spice, "name": "GOLDEN_MACRO",
            "pairs": PAIRS, "seed": 0, "threshold": 0.25}


class TestWireGoldens:
    def test_request_body(self, golden_spice, update_golden):
        """The request schema itself is part of the pinned protocol."""
        request = dict(_annotate_request(golden_spice), spice="<SPICE_TEXT>")
        _check_golden(REQUEST_GOLDEN, _normalized_json(request), update_golden)

    def test_annotate_response(self, golden_server, golden_spice, update_golden):
        raw = golden_server.annotate_raw(_annotate_request(golden_spice))
        _check_golden(RESPONSE_GOLDEN, _normalized_json(json.loads(raw)),
                      update_golden)

    def test_stream_chunks(self, golden_server, golden_spice, update_golden):
        """Streamed NDJSON: ok report, isolated error report, done event."""
        designs = [
            {"spice": golden_spice, "name": "GOLDEN_MACRO", "pairs": PAIRS},
            {"spice": "C1 a b 1f\n.end\n", "name": "BROKEN", "pairs": PAIRS},
        ]
        lines = []
        response = golden_server._open(
            "POST", "/annotate",
            json.dumps({"designs": designs, "seed": 0, "threshold": 0.25,
                        "stream": True}).encode())
        try:
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            while True:
                line = response.readline()
                if not line:
                    break
                lines.append(json.loads(line))
        finally:
            response.close()
        actual = "".join(json.dumps(_normalize(line), sort_keys=True) + "\n"
                         for line in lines)
        _check_golden(STREAM_GOLDEN, actual, update_golden)

    def test_healthz(self, golden_server, update_golden):
        _check_golden(HEALTHZ_GOLDEN, _normalized_json(golden_server.healthz()),
                      update_golden)

    def test_metrics_after_fixed_sequence(self, golden_server, golden_spice,
                                          update_golden):
        """Counters and histogram after exactly one annotate request."""
        golden_server.annotate_raw(_annotate_request(golden_spice))
        _check_golden(METRICS_GOLDEN,
                      _normalized_json(golden_server.metrics()), update_golden)


def test_wire_golden_files_are_committed():
    for path in (REQUEST_GOLDEN, RESPONSE_GOLDEN, STREAM_GOLDEN,
                 HEALTHZ_GOLDEN, METRICS_GOLDEN):
        assert path.exists(), f"{path.name} missing; run --update-golden"
