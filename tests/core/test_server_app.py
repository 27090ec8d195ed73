"""End-to-end tests of the annotation daemon (repro.core.server.app).

A real :class:`ThreadedServer` (OS-assigned port) serves a session-scoped
deterministic engine; a stdlib :class:`ServeClient` talks to it.  The
central contract under test: responses are **byte-identical** whether a
request is served alone, sequentially, or coalesced into concurrent
cross-request batches — and identical to what the local engine computes.
"""

from __future__ import annotations

import concurrent.futures
import json

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


@pytest.fixture(scope="module")
def server(server_engine):
    with ThreadedServer(server_engine,
                        ServerConfig(port=0)) as threaded:
        yield threaded


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout=30.0)


def local_reference(engine, spice: str, name: str, pairs, seed: int,
                    max_candidates: int = 200) -> bytes:
    """What the wire bytes must equal: the local engine's annotation.

    Uses :meth:`annotate_many` so the per-design seed is the same
    SeedSequence-spawned stream the daemon derives for position 0.
    """
    graph = netlist_to_graph(parse_spice(spice, name=name).flatten())
    (annotation,) = engine.annotate_many(
        [graph], pairs=None if pairs is None else [pairs],
        max_candidates=max_candidates, seed=seed)
    return dumps_canonical(annotation_payload(
        annotation.design, annotation.records, annotation.threshold))


@pytest.fixture(scope="module")
def workload(server_engine, server_spice):
    """Candidate pairs of the test design, as string tuples."""
    graph = netlist_to_graph(parse_spice(server_spice, name="APP").flatten())
    return default_candidate_pairs(graph, max_candidates=12,
                                   rng=np.random.default_rng(5))


class TestServiceEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["precision"] == "float64"
        assert payload["task"] == "edge_regression"
        assert payload["backend"] == "numpy"
        assert payload["uptime_seconds"] >= 0

    def test_metrics_schema_and_counters(self, client, server_spice):
        before = client.metrics()
        client.annotate(server_spice, name="METRICS", max_candidates=4)
        after = client.metrics()
        assert after["requests_total"] > before["requests_total"]
        assert after["designs_annotated_total"] >= before["designs_annotated_total"] + 1
        assert after["batches_total"] >= 1
        assert set(after["latency"]) == {"count", "sum_seconds",
                                         "p50_seconds", "p95_seconds"}
        assert "le_inf" in after["batch_size_histogram"]

    def test_unknown_route_and_method(self, client):
        with pytest.raises(ServeError) as not_found:
            client._request_json("GET", "/nope")
        assert not_found.value.status == 404
        with pytest.raises(ServeError) as bad_method:
            client._request_json("GET", "/annotate")
        assert bad_method.value.status == 405
        assert bad_method.value.kind == "method_not_allowed"


class TestAnnotate:
    def test_single_design_matches_local_engine_bytes(
            self, client, server_engine, server_spice, workload):
        raw = client.annotate_raw({
            "spice": server_spice, "name": "APP",
            "pairs": [list(pair) for pair in workload], "seed": 9,
        })
        assert raw.strip() == local_reference(server_engine, server_spice,
                                              "APP", workload, seed=9)

    def test_auto_candidates_match_local_engine(self, client, server_engine,
                                                server_spice):
        report = client.annotate(server_spice, name="AUTO", max_candidates=6,
                                 seed=2)
        local = json.loads(local_reference(server_engine, server_spice, "AUTO",
                                           None, seed=2, max_candidates=6))
        assert report == local

    def test_threshold_override(self, client, server_spice, workload):
        lax = client.annotate(server_spice, name="THR",
                              pairs=workload, threshold=0.0)
        strict = client.annotate(server_spice, name="THR",
                                 pairs=workload, threshold=1.0)
        assert lax["threshold"] == 0.0 and strict["threshold"] == 1.0
        assert lax["num_predicted_couplings"] == len(workload)
        assert strict["num_predicted_couplings"] == 0
        # Probabilities themselves are threshold-independent.
        assert ([r["coupling_probability"] for r in lax["records"]]
                == [r["coupling_probability"] for r in strict["records"]])

    def test_multi_design_streams_in_order(self, client, server_spice):
        arrivals = []
        reports = client.annotate_many(
            [{"spice": server_spice, "name": f"D{i}", "max_candidates": 3}
             for i in range(4)],
            seed=0, stream=True, on_result=lambda r: arrivals.append(r["design"]))
        assert [r["design"] for r in reports] == ["D0", "D1", "D2", "D3"]
        assert arrivals == ["D0", "D1", "D2", "D3"]
        # Per-design seeds are SeedSequence-spawned by position: same text,
        # different candidates stay per-design deterministic.
        again = client.annotate_many(
            [{"spice": server_spice, "name": f"D{i}", "max_candidates": 3}
             for i in range(4)], seed=0, stream=False)
        assert again == reports

    def test_concurrent_requests_byte_identical_to_sequential(
            self, client, server_engine, server_spice, workload):
        """Coalesced cross-request batches must not change any response."""
        requests = [{"spice": server_spice, "name": "APP",
                     "pairs": [list(pair) for pair in workload],
                     "seed": 9} for _ in range(8)]
        expected = local_reference(server_engine, server_spice, "APP",
                                   workload, seed=9)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            raws = list(pool.map(client.annotate_raw, requests))
        assert all(raw.strip() == expected for raw in raws)

    def test_empty_pairs_yields_empty_report(self, client, server_spice):
        report = client.annotate(server_spice, name="EMPTY", pairs=[])
        assert report["status"] == "ok"
        assert report["records"] == []
        assert report["num_candidates"] == 0


def small_batch_engine(config, batch_size: int = 4):
    """A fresh untrained engine whose requests span several serial chunks."""
    from repro.core import CircuitGPSPipeline, build_model
    from repro.core.serve import AnnotationEngine
    from repro.utils import seed_all

    seed_all(0)
    pipeline = CircuitGPSPipeline.from_models(
        config, build_model(config),
        heads={("edge_regression", "all"): build_model(config)})
    return AnnotationEngine(pipeline, workers=0, batch_size=batch_size)


class TestGroupingSensitiveExtraction:
    def test_eager_chunk_path_matches_local_engine(self, tiny_config,
                                                   server_spice):
        """With hub subsampling the server must reproduce serial chunk RNG."""
        engine = small_batch_engine(tiny_config)
        assert engine.config.data.max_nodes_per_hop is not None
        graph = netlist_to_graph(parse_spice(server_spice, name="HUB").flatten())
        pairs = default_candidate_pairs(graph, max_candidates=10,
                                        rng=np.random.default_rng(1))
        expected = local_reference(engine, server_spice, "HUB", pairs, seed=4)
        with ThreadedServer(engine, ServerConfig(port=0)) as srv:
            raw = ServeClient(srv.url).annotate_raw({
                "spice": server_spice, "name": "HUB",
                "pairs": [list(pair) for pair in pairs], "seed": 4})
        assert raw.strip() == expected


class TestOneSubmissionPerRequest:
    def test_multi_chunk_request_is_one_submission(self, tiny_config, server_spice):
        """A request of several serial chunks submits once, not once per
        chunk: all of its subgraphs reach one batch."""
        engine = small_batch_engine(tiny_config)
        config = ServerConfig(port=0, max_batch=64)
        with ThreadedServer(engine, config) as srv:
            client = ServeClient(srv.url, timeout=30.0)
            report = client.annotate(server_spice, name="CHUNKS", max_candidates=12)
            metrics = client.metrics()
        assert report["num_candidates"] == 12
        assert len(engine.request_chunks(12)) == 3
        assert metrics["batches_total"] == 1
        assert metrics["max_batch_observed"] == 12


class TestCrossDesignCoalescing:
    @pytest.mark.parametrize("max_nodes_per_hop", [None, 2])
    def test_forwards_coalesce_across_designs(self, tiny_config, server_spice,
                                              max_nodes_per_hop):
        """Every design of one request shares forward batches, and the
        response still equals local annotation byte for byte (a cap of 2
        makes hub subsampling, and so per-chunk RNG, trigger on this macro)."""
        engine = small_batch_engine(
            tiny_config.with_data(max_nodes_per_hop=max_nodes_per_hop))
        designs = [{"spice": server_spice, "name": f"C{i}", "max_candidates": 6}
                   for i in range(3)]
        graphs = [netlist_to_graph(parse_spice(server_spice, name=d["name"]).flatten())
                  for d in designs]
        local = engine.annotate_many(graphs, max_candidates=6, seed=3)
        expected = dumps_canonical({"reports": [
            annotation_payload(a.design, a.records, a.threshold) for a in local]})
        config = ServerConfig(port=0, max_batch=64)
        with ThreadedServer(engine, config) as srv:
            client = ServeClient(srv.url, timeout=30.0)
            raw = client.annotate_raw({"designs": designs, "seed": 3})
            metrics = client.metrics()
        assert raw.strip() == expected
        largest = max(a.num_candidates for a in local)
        assert largest < config.max_batch
        assert metrics["max_batch_observed"] > largest


class TestCliRemote:
    def test_annotate_remote_parity_and_json(self, server, server_spice,
                                             tmp_path, capsys):
        from repro.core.cli import main

        netlist = tmp_path / "remote_macro.sp"
        netlist.write_text(server_spice)
        json_out = tmp_path / "remote_report.json"
        code = main(["annotate", "-", str(netlist), "--remote", server.url,
                     "--max-candidates", "5", "--seed", "3",
                     "--json", str(json_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "remote_macro" in out and "predicted coupling(s)" in out
        payload = json.loads(json_out.read_text())
        assert payload["design"] == "remote_macro"
        assert payload["status"] == "ok"
        assert len(payload["records"]) == 5

    def test_annotate_remote_rejects_annotated_out(self, server, server_spice,
                                                   tmp_path, capsys):
        from repro.core.cli import main

        netlist = tmp_path / "x.sp"
        netlist.write_text(server_spice)
        code = main(["annotate", "-", str(netlist), "--remote", server.url,
                     "--annotated-out", str(tmp_path / "out")])
        assert code == 2
        assert "--annotated-out" in capsys.readouterr().err

    def test_annotate_remote_reports_failures(self, server, server_spice,
                                              tmp_path, capsys):
        from repro.core.cli import main

        good = tmp_path / "good.sp"
        good.write_text(server_spice)
        bad = tmp_path / "bad.sp"
        bad.write_text("C1 a b 1f\n.end\n")  # graph has no such pair nodes
        code = main(["annotate", "-", str(good), str(bad),
                     "--remote", server.url, "--pairs", "BL0,BL1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "BL0" in captured.out          # good design still printed
        assert "not found" in captured.err    # bad design's error surfaced


class TestTimeouts:
    def test_slow_request_times_out_with_504(self, server_engine, server_spice):
        config = ServerConfig(port=0, request_timeout_s=0.001)
        with ThreadedServer(server_engine, config) as srv:
            client = ServeClient(srv.url, timeout=10.0)
            with pytest.raises(ServeError) as excinfo:
                client.annotate(server_spice, name="SLOW", max_candidates=50)
            assert excinfo.value.status == 504
            assert excinfo.value.kind == "timeout"
            # The daemon survives and still serves /healthz.
            assert client.healthz()["status"] == "ok"


class TestBlockPath:
    def test_annotate_and_a_daemon_request_build_no_subgraph(
            self, server_engine, client, server_spice, monkeypatch):
        """With a ``dspd`` model, each chunk stays one block from the
        extractor to the forward: no per-link :class:`Subgraph` is built."""
        from repro.graph import Subgraph

        assert server_engine.link_model.pe_kind == "dspd"
        built = []
        init = Subgraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subgraph, "__init__", counting_init)
        graph = netlist_to_graph(parse_spice(server_spice, name="BLOCKS").flatten())
        local = server_engine.annotate(graph, max_candidates=12, seed=4)
        remote = client.annotate(server_spice, name="BLOCKS", max_candidates=12, seed=4)
        assert local.records and remote["status"] == "ok" and remote["records"]
        assert built == []
        # The probe itself works: a block's view is a Subgraph.
        dataset = server_engine.request_dataset(graph, server_engine.links_for_pairs(
            graph, [record["pair"] for record in local.records]))
        server_engine.extract_chunk(dataset, [0])[0]
        assert built == [1]
