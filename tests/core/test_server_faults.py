"""Fault injection against the annotation daemon.

Every scenario asserts two things: the *blast radius* (a fault stays
contained to the request or sample that caused it) and the *accounting*
(the matching ``/metrics`` error counter increments).  Scenarios:

* malformed JSON bodies and oversized payloads → 400 / 413,
* a mid-batch engine exception (one poisoned design coalesced into a shared
  batch) → only the poisoned request fails; its batch-mates from other
  requests are answered byte-identically to a fault-free run,
* a client disconnecting mid-stream → the daemon stays healthy,
* a flood against a tiny queue bound → backpressure, not unbounded memory.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.serve import annotation_payload, default_candidate_pairs
from repro.core.server import (
    ServeClient,
    ServeError,
    ServerConfig,
    ThreadedServer,
    dumps_canonical,
)
from repro.graph import netlist_to_graph
from repro.netlist import parse_spice


@pytest.fixture()
def faulty_server(server_engine):
    """A dedicated daemon per test (fault state must not leak)."""
    config = ServerConfig(port=0, max_batch=64, max_body_bytes=64 * 1024)
    with ThreadedServer(server_engine, config) as threaded:
        yield threaded


def raw_post(server, body: bytes, path: str = "/annotate"):
    """POST arbitrary bytes, bypassing the JSON client."""
    connection = http.client.HTTPConnection(server.server.host,
                                            server.server.port, timeout=10)
    connection.request("POST", path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = json.loads(response.read())
    connection.close()
    return response.status, payload


class TestProtocolFaults:
    def test_malformed_json_is_a_400(self, faulty_server):
        status, payload = raw_post(faulty_server, b"{not json at all")
        assert status == 400
        assert payload["error"]["type"] == "bad_json"
        metrics = ServeClient(faulty_server.url).metrics()
        assert metrics["errors_total"]["bad_json"] == 1
        assert metrics["responses_error_total"] == 1

    def test_wrong_shapes_are_400s(self, faulty_server):
        for body in (b"[1,2,3]",                      # not an object
                     b"{}",                           # neither spice nor designs
                     b'{"designs": []}',              # empty designs
                     b'{"designs": [{"name": "x"}]}',  # missing spice
                     b'{"spice": ".end", "pairs": [["a"]]}',  # 1-element pair
                     b'{"spice": ".end", "seed": "NaNsense"}'):
            status, payload = raw_post(faulty_server, body)
            assert status == 400, body
            assert payload["error"]["type"] == "bad_request", body
        metrics = ServeClient(faulty_server.url).metrics()
        assert metrics["errors_total"]["bad_request"] == 6

    def test_oversized_payload_is_a_413(self, faulty_server, server_spice):
        padding = " ".join(["*pad"] * 40000)  # > the 64 KiB test limit
        status, payload = raw_post(
            faulty_server,
            json.dumps({"spice": server_spice + "\n" + padding}).encode())
        assert status == 413
        assert payload["error"]["type"] == "payload_too_large"
        metrics = ServeClient(faulty_server.url).metrics()
        assert metrics["errors_total"]["payload_too_large"] == 1

    def test_negative_content_length_is_a_400(self, faulty_server):
        connection = http.client.HTTPConnection(faulty_server.server.host,
                                                faulty_server.server.port,
                                                timeout=10)
        connection.putrequest("POST", "/annotate")
        connection.putheader("Content-Length", "-5")
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert payload["error"]["type"] == "bad_request"
        assert "Content-Length" in payload["error"]["message"]
        metrics = ServeClient(faulty_server.url).metrics()
        assert metrics["errors_total"]["bad_request"] == 1
        assert "internal_error" not in metrics["errors_total"]


class TestMidBatchEngineFault:
    def test_poisoned_design_fails_alone(self, faulty_server, server_engine,
                                         server_spice, monkeypatch):
        """One poisoned sample in a shared batch must not fail batch-mates."""
        graph = netlist_to_graph(parse_spice(server_spice, name="GOOD").flatten())
        pairs = default_candidate_pairs(graph, max_candidates=8,
                                        rng=np.random.default_rng(7))
        annotation = server_engine.annotate(graph, pairs=pairs, seed=1)
        expected = dumps_canonical(annotation_payload(
            annotation.design, annotation.records, annotation.threshold))

        original = server_engine.predict_samples
        original_dataset = server_engine.request_dataset
        original_extract = server_engine.extract_chunk
        # The daemon's batch items are (block, index) pairs; remember the
        # blocks extracted for the HOLD and POISON designs' requests.
        datasets = {"HOLD": [], "POISON": []}
        blocks = {"HOLD": [], "POISON": []}
        holding, release = threading.Event(), threading.Event()
        poison_batches = []  # the size of every batch that carried POISON

        def request_dataset(graph, links, seed=0):
            dataset = original_dataset(graph, links, seed=seed)
            if graph.name in datasets:
                datasets[graph.name].append(dataset)
            return dataset

        def extract_chunk(dataset, indices):
            block = original_extract(dataset, indices)
            for name, named in datasets.items():
                if any(dataset is candidate for candidate in named):
                    blocks[name].append(block)
            return block

        def carries(samples, name):
            return any(block is named for block, _ in samples
                       for named in blocks[name])

        def poisoned(samples):
            if carries(samples, "HOLD"):
                holding.set()
                assert release.wait(timeout=30), "HOLD batch never released"
            if carries(samples, "POISON"):
                poison_batches.append(len(samples))
                raise RuntimeError("injected mid-batch failure")
            return original(samples)

        monkeypatch.setattr(server_engine, "request_dataset", request_dataset)
        monkeypatch.setattr(server_engine, "extract_chunk", extract_chunk)
        monkeypatch.setattr(server_engine, "predict_samples", poisoned)
        client = ServeClient(faulty_server.url)

        def request(name):
            return {"spice": server_spice, "name": name,
                    "pairs": [list(pair) for pair in pairs], "seed": 1}

        # Forward batches run on a thread of their own, so extraction goes
        # on while the HOLD batch keeps the flush loop busy.  GOOD and
        # POISON both submit meanwhile, so the work-conserving batcher
        # takes all their links as one batch.
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as forward_thread:
            monkeypatch.setattr(faulty_server.server._batcher, "executor",
                                forward_thread)
            with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
                hold_future = pool.submit(client.annotate_raw, request("HOLD"))
                assert holding.wait(timeout=30), "HOLD batch never started"
                good_future = pool.submit(client.annotate_raw, request("GOOD"))
                poison_future = pool.submit(client.annotate, spice=server_spice,
                                            name="POISON", pairs=pairs, seed=1)
                deadline = time.monotonic() + 30
                while client.metrics()["queue_depth"] < 2 * len(pairs):
                    assert time.monotonic() < deadline, "requests never queued"
                    time.sleep(0.005)
                release.set()
                hold_future.result(timeout=30)
                good_raw = good_future.result(timeout=30)
                poison_report = poison_future.result(timeout=30)

            assert good_raw.strip() == expected  # batch-mate unaffected, bit-for-bit
            assert poison_report["status"] == "error"
            assert poison_report["design"] == "POISON"
            assert "injected mid-batch failure" in poison_report["error"]["message"]
            # One shared batch of GOOD's and POISON's links failed, then its
            # items were retried one by one.  The first POISON retry failed
            # the request, so its other links were cancelled, not retried.
            assert poison_batches == [2 * len(pairs), 1]
            metrics = client.metrics()
            assert metrics["batch_retries_total"] == 1
            assert metrics["errors_total"]["batch_item_error"] >= 1
            assert metrics["errors_total"]["design_error"] >= 1
            # The shared engine really was patched back in business
            # afterwards.  The flush loop finishes the shared batch's
            # retries before it takes this request's batch.
            monkeypatch.undo()
            assert client.annotate_raw(request("GOOD")).strip() == expected


class TestDesignFailureLogging:
    def test_failed_design_logs_a_warning_with_its_error_type(self, faulty_server,
                                                              server_spice, caplog):
        """A failed design must be visible at the default log level."""
        caplog.set_level(logging.WARNING, logger="repro.server")
        report = ServeClient(faulty_server.url).annotate(
            spice=server_spice, name="BROKEN", pairs=[("no_such_net", "other")], seed=1)
        assert report["status"] == "error"
        records = [r for r in caplog.records if r.name == "repro.server"
                   and "BROKEN" in r.getMessage()]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].error_type == report["error"]["type"]
        assert report["error"]["type"] in records[0].getMessage()


class TestCollidingNodeNames:
    def test_colliding_design_fails_alone(self, faulty_server, server_spice):
        """A netlist whose net and device share a name is a per-design
        ValueError; the other design of the request is still annotated."""
        colliding = "M1 a M1 VSS VSS nch\nR1 a b 1k\n.end\n"
        client = ServeClient(faulty_server.url)
        good = {"spice": server_spice, "name": "GOOD", "max_candidates": 6}
        reports = client.annotate_many([{"spice": colliding, "name": "CLASH"}, good],
                                       seed=2, stream=False)
        assert [report["design"] for report in reports] == ["CLASH", "GOOD"]
        assert reports[0]["status"] == "error"
        assert reports[0]["error"]["type"] == "ValueError"
        assert "'M1'" in reports[0]["error"]["message"]
        assert reports[1]["status"] == "ok" and reports[1]["records"]
        # Seeds follow request positions: same records as with a valid first design.
        assert reports[1] == client.annotate_many([dict(good, name="OTHER"), good],
                                                  seed=2, stream=False)[1]
        assert client.metrics()["errors_total"]["design_error"] == 1


class TestClientDisconnect:
    def test_disconnect_mid_stream_leaves_daemon_healthy(self, server_engine,
                                                         server_spice):
        # Dedicated server: the multi-design body is larger than the
        # faulty_server fixture's tiny 64 KiB body cap.
        config = ServerConfig(port=0)
        with ThreadedServer(server_engine, config) as threaded:
            self._disconnect_scenario(threaded, server_spice)

    @staticmethod
    def _disconnect_scenario(threaded, server_spice):
        body = json.dumps({
            "designs": [{"spice": server_spice, "name": f"D{i}",
                         "max_candidates": 12} for i in range(6)],
            "stream": True,
        }).encode()
        sock = socket.create_connection(
            (threaded.server.host, threaded.server.port), timeout=10)
        sock.sendall(b"POST /annotate HTTP/1.1\r\n"
                     b"Content-Type: application/json\r\n"
                     + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        first = sock.recv(64)  # headers started streaming; the request is live
        assert first.startswith(b"HTTP/1.1 200")
        # Abort hard: RST instead of FIN so pending writes fail server-side.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()

        client = ServeClient(threaded.url)
        deadline = time.monotonic() + 5.0
        disconnected = False
        while time.monotonic() < deadline:
            metrics = client.metrics()  # the daemon must keep answering
            if metrics["errors_total"].get("client_disconnect", 0) >= 1:
                disconnected = True
                break
            time.sleep(0.05)
        assert disconnected, "client_disconnect error counter never incremented"
        # And annotation still works end-to-end afterwards.
        report = client.annotate(server_spice, name="AFTER", max_candidates=3)
        assert report["status"] == "ok"


class TestBackpressure:
    def test_bounded_queue_under_flood(self, server_engine, server_spice):
        """A flood fills the queue to its bound, never past it."""
        config = ServerConfig(port=0, max_batch=8, max_queue=8)
        with ThreadedServer(server_engine, config) as threaded:
            client = ServeClient(threaded.url, timeout=60.0)
            request = {"spice": server_spice, "name": "FLOOD", "seed": 0,
                       "max_candidates": 24}
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                raws = list(pool.map(
                    client.annotate_raw, [dict(request) for _ in range(6)]))
            metrics = client.metrics()
        assert len(set(raws)) == 1  # all identical, all complete
        assert json.loads(raws[0])["status"] == "ok"
        assert metrics["max_queue_depth"] <= 8
        assert metrics["batched_items_total"] >= 6 * 24
