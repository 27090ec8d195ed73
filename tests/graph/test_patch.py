"""Tests for :func:`repro.graph.patch_graph`, the incremental ECO graph.

The contract: patching ``netlist_to_graph(old)`` with a delta gives exactly
``netlist_to_graph(delta.apply(old))`` — node names and types, edges and
edge types, the ``node_stats`` bytes and the name index — for random deltas,
for the corner cases of the net block (nets appearing and vanishing, ports,
power rails) and along a chain of re-annotations that carries the graph.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import AnnotationEngine, CircuitGPSPipeline, build_model
from repro.core.serve import default_candidate_pairs
from repro.core.server import dumps_canonical
from repro.graph import netlist_to_graph, patch_graph
from repro.netlist import (Capacitor, Circuit, Mosfet, NetlistDelta, Resistor,
                           hierarchical_sram, ssram)
from repro.utils import seed_all

from ..core.test_shard import random_delta
from .graph_oracle import assert_graphs_identical

DELTAS_PER_DESIGN = 110


def assert_patch_matches_full_build(old: Circuit, delta: NetlistDelta,
                                    with_stats: bool = True):
    """Patch the graph of ``old`` and compare it with a full build."""
    graph = netlist_to_graph(old, with_stats=with_stats)
    before = copy.deepcopy(graph)
    new = delta.apply(old)
    patched = patch_graph(graph, delta, new)
    want = netlist_to_graph(new, with_stats=with_stats)
    assert_graphs_identical(patched, want)
    assert patched._name_to_index == want._name_to_index
    patched.validate()
    assert_graphs_identical(graph, before)  # the input graph is untouched
    return patched


@pytest.fixture(scope="module", params=["ssram", "hierarchical_sram"])
def design(request) -> Circuit:
    if request.param == "ssram":
        return ssram(rows=3, cols=2).flatten()
    return hierarchical_sram(banks=1, rows=2, cols=2).flatten()


def test_random_deltas_patch_to_the_full_build(design):
    rng = np.random.default_rng(11)
    for _ in range(DELTAS_PER_DESIGN):
        assert_patch_matches_full_build(design, random_delta(design, rng))


def test_random_deltas_without_stats(design):
    rng = np.random.default_rng(12)
    for _ in range(10):
        patched = assert_patch_matches_full_build(design, random_delta(design, rng),
                                                  with_stats=False)
        assert patched.node_stats is None


def test_chained_patches_stay_equal_to_the_full_build():
    """Each patch starts from the previous patch, not from a full build."""
    circuit = ssram(rows=2, cols=2).flatten()
    graph = netlist_to_graph(circuit)
    rng = np.random.default_rng(5)
    for step in range(40):
        delta = random_delta(circuit, rng)
        # random_delta reuses RECO<i> names; rename so edits can chain.
        for device in delta.add_devices:
            if device.name.startswith("RECO"):
                device.name = f"{device.name}_{step}"
        circuit_next = delta.apply(circuit)
        graph = patch_graph(graph, delta, circuit_next)
        circuit = circuit_next
        assert_graphs_identical(graph, netlist_to_graph(circuit))


# --------------------------------------------------------------------------- #
# Hand cases
# --------------------------------------------------------------------------- #
def hand_circuit() -> Circuit:
    """Nets ``a`` and ``p`` are ports; ``lonely`` and ``p`` have one device each."""
    circuit = Circuit("HAND", ports=["a", "p"])
    circuit.add(Mosfet("M1", {"D": "a", "G": "b", "S": "c", "B": "VSS"},
                       width=2e-6, length=1e-7))
    circuit.add(Resistor("R1", {"P": "b", "N": "lonely"}, resistance=1e3))
    circuit.add(Resistor("R2", {"P": "p", "N": "c"}, resistance=2e3))
    circuit.add(Capacitor("C1", {"P": "a", "N": "VDD"}, capacitance=1e-15))
    circuit.add(Mosfet("MRAIL", {"D": "VDD", "G": "VSS", "S": "VSS", "B": "VSS"}))
    circuit.add(Mosfet("M2", {"D": "c", "G": "a", "S": "b", "B": "VSS"},
                       width=1e-6, length=1e-7))
    return circuit


def net_names(graph) -> list[str]:
    return [name for name, kind in zip(graph.node_names, graph.node_types) if kind == 0]


class TestHandCases:
    def test_added_device_on_fresh_nets_shifts_the_net_block(self):
        """Fresh nets sort before, between and after the existing nets."""
        delta = NetlistDelta(add_devices=[
            Resistor("RX", {"P": "aa", "N": "zz"}),
            Mosfet("MX", {"D": "0first", "G": "b", "S": "bb", "B": "VSS"}),
        ])
        patched = assert_patch_matches_full_build(hand_circuit(), delta)
        assert net_names(patched) == ["0first", "a", "aa", "b", "bb", "c", "lonely",
                                      "p", "zz"]

    def test_removing_the_last_device_of_a_net_drops_the_net(self):
        patched = assert_patch_matches_full_build(hand_circuit(),
                                                  NetlistDelta(remove_devices=["R1"]))
        assert "lonely" not in net_names(patched)

    def test_removing_the_last_device_of_a_port_keeps_the_port(self):
        patched = assert_patch_matches_full_build(hand_circuit(),
                                                  NetlistDelta(remove_devices=["R2"]))
        port = patched.node_index("p")
        assert not patched.csr.neighbors(port).size
        assert patched.node_stats[port, 12] == 1.0

    def test_a_net_that_loses_and_regains_devices_survives(self):
        delta = NetlistDelta(add_devices=[Capacitor("C9", {"P": "lonely", "N": "a"})],
                             remove_devices=["R1"])
        patched = assert_patch_matches_full_build(hand_circuit(), delta)
        assert "lonely" in net_names(patched)

    def test_rail_only_devices(self):
        delta = NetlistDelta(
            add_devices=[Mosfet("MRAIL2", {"D": "VDD", "G": "VSS", "S": "0", "B": "VSS"})],
            remove_devices=["MRAIL"])
        assert_patch_matches_full_build(hand_circuit(), delta)

    def test_in_place_rewire_keeps_the_slot_and_builds_new_edges(self):
        """M1's pins move between existing nets: the patch renumbers, equal
        to a full build, with M1 in its old slot; nothing structural is
        shared with the input, which is left as it was."""
        circuit = hand_circuit()
        graph = netlist_to_graph(circuit)
        delta = NetlistDelta(
            add_devices=[Mosfet("M1", {"D": "c", "G": "b", "S": "a", "B": "VSS"},
                                width=4e-6, length=2e-7)],
            remove_devices=["M1"])
        new = delta.apply(circuit)
        assert [d.name for d in new.devices] == [d.name for d in circuit.devices]
        patched = assert_patch_matches_full_build(circuit, delta)
        devices = [patched.node_names[row] for row in patched.device_rows]
        assert devices == [d.name for d in circuit.devices]
        assert patched.node_names is not graph.node_names
        assert patched._name_to_index is not graph._name_to_index
        assert patched._csr is None  # the adjacency changed; it rebuilds lazily
        np.testing.assert_array_equal(patched.csr.indptr, netlist_to_graph(new).csr.indptr)

    def test_a_resize_shares_the_structure_read_only(self):
        """A geometry-only edit moves no row and no edge: the new graph
        shares every structural array and the CSR with the old one, both
        read-only, and only ``node_stats`` is new."""
        circuit = hand_circuit()
        graph = netlist_to_graph(circuit)
        (m2,) = [device for device in circuit.devices if device.name == "M2"]
        resized = copy.deepcopy(m2)
        resized.width *= 3
        delta = NetlistDelta(add_devices=[resized], remove_devices=["M2"])
        patched = assert_patch_matches_full_build(circuit, delta)
        patched = patch_graph(graph, delta, delta.apply(circuit))
        for name in ("node_names", "node_types", "edge_index", "edge_types", "_csr",
                     "_name_to_index", "_device_rows"):
            assert getattr(patched, name) is getattr(graph, name), name
        assert patched.node_stats is not graph.node_stats
        changed = np.flatnonzero((patched.node_stats != graph.node_stats).any(axis=1))
        # M2's device row and the nets its width counts in (a, b, c).
        assert [patched.node_names[row] for row in changed] == ["a", "b", "c", "M2"]
        csr = patched.csr
        for array in (patched.node_types, patched.edge_index, patched.edge_types,
                      patched.node_stats, patched.device_rows, csr.indptr, csr.indices,
                      csr.edge_ids):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            graph.edge_index[0, 0] = 0

    def test_in_place_edits_that_move_rows_keep_their_slot(self):
        """A new terminal count, or a pin moved to a fresh net or off the
        only net it held, renumbers the rows; the edited device keeps its
        place in the device order either way."""
        three_pins = Resistor("R2", {"P": "p", "N": "c", "B": "a"})
        cases = {
            "terminal count": (hand_circuit(), Resistor("M1", {"P": "a", "N": "b"})),
            "a pin dropped": (NetlistDelta(add_devices=[three_pins], remove_devices=["R2"])
                              .apply(hand_circuit()), Resistor("R2", {"P": "p", "N": "c"})),
            "fresh net": (hand_circuit(), Resistor("R2", {"P": "p", "N": "zz"})),
            "vanishing net": (hand_circuit(), Resistor("R1", {"P": "b", "N": "a"})),
        }
        for case, (circuit, edited) in cases.items():
            delta = NetlistDelta(add_devices=[edited], remove_devices=[edited.name])
            graph = netlist_to_graph(circuit)
            patched = assert_patch_matches_full_build(circuit, delta)
            assert patched.node_names != graph.node_names, case
            devices = [patched.node_names[row] for row in patched.device_rows]
            assert devices == [d.name for d in circuit.devices], case

    def test_removing_every_device_leaves_the_ports(self):
        circuit = hand_circuit()
        delta = NetlistDelta(remove_devices=[d.name for d in circuit.devices])
        patched = assert_patch_matches_full_build(circuit, delta)
        assert patched.node_names == ["a", "p"]

    def test_empty_delta_shares_the_whole_graph(self):
        circuit = hand_circuit()
        assert_patch_matches_full_build(circuit, NetlistDelta())
        graph = netlist_to_graph(circuit)
        patched = patch_graph(graph, NetlistDelta(), circuit)
        assert patched is not graph
        assert patched.node_stats is graph.node_stats
        assert patched._name_to_index is graph._name_to_index
        with pytest.raises(ValueError, match="read-only"):
            graph.node_stats[0, 0] = 1.0

    def test_empty_delta_leaves_the_input_names_and_index_as_they_were(self):
        graph = netlist_to_graph(hand_circuit())
        names, index = copy.deepcopy(graph.node_names), copy.deepcopy(graph._name_to_index)
        patch_graph(graph, NetlistDelta(), hand_circuit())
        assert graph.node_names == names
        assert graph._name_to_index == index

    def test_a_graph_without_its_name_index(self):
        """A pickled graph drops its name index; the patch rebuilds it."""
        circuit = hand_circuit()
        graph = pickle.loads(pickle.dumps(netlist_to_graph(circuit)))
        assert graph._name_to_index is None
        delta = NetlistDelta(add_devices=[Mosfet("MRAIL2", {"D": "VDD", "G": "VSS",
                                                            "S": "VSS", "B": "VSS"})])
        new = delta.apply(circuit)
        patched = patch_graph(graph, delta, new)
        assert patched._name_to_index == netlist_to_graph(new)._name_to_index

    def test_a_fresh_net_named_like_a_device_is_a_collision(self):
        circuit = hand_circuit()
        delta = NetlistDelta(add_devices=[Resistor("RX", {"P": "M2", "N": "a"})])
        new = delta.apply(circuit)
        with pytest.raises(ValueError, match="'M2' is taken by a net and again by a device"):
            netlist_to_graph(new)
        with pytest.raises(ValueError, match="'M2' is taken by a net and again by a device"):
            patch_graph(netlist_to_graph(circuit), delta, new)

    def test_a_removed_device_name_can_become_a_net(self):
        delta = NetlistDelta(add_devices=[Resistor("RX", {"P": "R1", "N": "b"})],
                             remove_devices=["R1"])
        patched = assert_patch_matches_full_build(hand_circuit(), delta)
        assert patched.node_types[patched.node_index("R1")] == 0


# --------------------------------------------------------------------------- #
# The graph a re-annotation chain carries
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def engine(tiny_config) -> AnnotationEngine:
    """An untrained engine with hub subsampling off (RNG-free extraction)."""
    seed_all(0)
    config = tiny_config.with_data(max_nodes_per_hop=None)
    pipeline = CircuitGPSPipeline.from_models(
        config, build_model(config), heads={("edge_regression", "all"): build_model(config)})
    return AnnotationEngine(pipeline, workers=0)


def test_reannotate_chain_carries_the_patched_graph(engine):
    """20 chained ECOs: each report's graph is the full build of its circuit,
    and its records equal a from-scratch annotate at the wire encoding."""
    circuit = ssram(rows=3, cols=2).flatten()
    pairs = default_candidate_pairs(netlist_to_graph(circuit), max_candidates=30,
                                    rng=np.random.default_rng(2))
    report = engine.annotate(circuit, pairs=pairs, seed=0)
    assert report.graph is not None
    rng = np.random.default_rng(9)
    recomputed = 0
    for step in range(20):
        flat = report.circuit
        victim = flat.devices[int(rng.integers(len(flat.devices)))]
        edited = copy.deepcopy(victim)
        edited.name = f"{victim.name}_eco{step}"
        delta = NetlistDelta(add_devices=[edited], remove_devices=[victim.name])
        report = engine.reannotate(report, delta, seed=0)
        recomputed += report.incremental["recomputed"]
        assert_graphs_identical(report.graph, netlist_to_graph(report.circuit))
        scratch = engine.annotate(report.circuit,
                                  pairs=[r["pair"] for r in report.records], seed=0)
        assert dumps_canonical(report.records) == dumps_canonical(scratch.records)
    assert recomputed > 0
    assert "graph" not in report.as_dict()
    # Worker processes ship reports back pickled, without the graph.
    shipped = pickle.loads(pickle.dumps(report))
    assert shipped.graph is None and report.graph is not None
    assert shipped.records == report.records


def test_a_chain_of_resizes_shares_the_structure_and_keeps_each_report(engine):
    """40 chained one-MOSFET resizes, the ECO of the chip_eco benchmark:
    every report's graph is the full build of its circuit (name index
    included) and shares the previous graph's structure and CSR; the device
    order never changes; the records equal a from-scratch annotate; and
    the previous report's circuit, graph and records are left as they were."""
    circuit = hierarchical_sram(banks=1, rows=2, cols=2).flatten()
    order = [device.name for device in circuit.devices]
    pairs = default_candidate_pairs(netlist_to_graph(circuit), max_candidates=30,
                                    rng=np.random.default_rng(4))
    report = engine.annotate(circuit, pairs=pairs, seed=0)
    mosfets = [device.name for device in circuit.devices if isinstance(device, Mosfet)]
    rng = np.random.default_rng(17)
    recomputed = 0
    for step in range(40):
        prev = report
        kept = (copy.deepcopy(prev.circuit.devices), copy.deepcopy(prev.graph),
                copy.deepcopy(prev.records))
        name = mosfets[int(rng.integers(len(mosfets)))]
        (old,) = [device for device in prev.circuit.devices if device.name == name]
        resized = copy.deepcopy(old)
        resized.width = old.width * float(rng.choice((0.5, 0.75, 1.5, 2.0)))
        report = engine.reannotate(
            prev, NetlistDelta(add_devices=[resized], remove_devices=[name]), seed=0)
        recomputed += report.incremental["recomputed"]
        want = netlist_to_graph(report.circuit)
        assert_graphs_identical(report.graph, want)
        assert report.graph._name_to_index == want._name_to_index
        assert report.graph.edge_index is prev.graph.edge_index
        assert report.graph._csr is prev.graph._csr is not None
        assert [device.name for device in report.circuit.devices] == order
        assert prev.circuit.devices == kept[0]
        assert_graphs_identical(prev.graph, kept[1])
        assert prev.graph._name_to_index == {n: i for i, n in enumerate(kept[1].node_names)}
        assert prev.records == kept[2]
        if step % 5 == 4:
            scratch = engine.annotate(report.circuit,
                                      pairs=[r["pair"] for r in report.records], seed=0)
            assert dumps_canonical(report.records) == dumps_canonical(scratch.records)
    assert recomputed > 0


def test_reannotate_builds_a_missing_graph_once(engine):
    """A report read back from JSON has no graph; reannotate builds it."""
    from repro.core.serve import NetlistAnnotation

    circuit = hand_circuit()
    report = engine.annotate(circuit, pairs=[("a", "b"), ("c", "p")], seed=0)
    restored = NetlistAnnotation.from_payload(report.as_dict(), circuit=circuit)
    assert restored.graph is None
    delta = NetlistDelta(remove_devices=["R1"])
    result = engine.reannotate(restored, delta, seed=0)
    assert_graphs_identical(result.graph, netlist_to_graph(delta.apply(circuit)))
    assert dumps_canonical(result.records) \
        == dumps_canonical(engine.reannotate(report, delta, seed=0).records)



def test_a_restored_report_drops_records_its_circuit_never_had(engine):
    """Records read back from JSON are not checked against the circuit they
    are paired with; the first reannotate drops those naming unknown nodes."""
    from repro.core.serve import NetlistAnnotation

    circuit = hand_circuit()
    report = engine.annotate(circuit, pairs=[("a", "b"), ("c", "p")], seed=0)
    payload = report.as_dict()
    payload["records"].insert(1, dict(payload["records"][0], pair=["a", "ghost"]))
    restored = NetlistAnnotation.from_payload(payload, circuit=circuit)
    result = engine.reannotate(restored, NetlistDelta(), seed=0)
    assert result.incremental == {"reused": 2, "recomputed": 0, "dropped": 1, "added": 0}
    assert result.records == report.records


# --------------------------------------------------------------------------- #
# The devices and the record index a re-annotation chain carries
# --------------------------------------------------------------------------- #
def test_reannotate_chain_shares_devices_and_merges_through_the_index(engine):
    """20 random ECOs, some deleting anchors and some adding pairs: each
    revision keeps the device order (replacements in their slots, new names
    appended) and shares its untouched devices with the one before, the carried
    index is the one its records give, and the records are the survivors
    plus the extra pairs, equal to a from-scratch annotate."""
    from repro.core.serve import record_index

    circuit = ssram(rows=3, cols=2).flatten()
    rng = np.random.default_rng(21)
    nets = default_candidate_pairs(netlist_to_graph(circuit), max_candidates=30, rng=rng)
    # Pin anchors, so that removed devices delete some records' anchors.
    pins = [(f"{device.name}:{next(iter(device.terminals))}", net)
            for device, (net, _) in zip(circuit.devices[::9], nets)]
    report = engine.annotate(circuit, pairs=nets + pins, seed=0)
    dropped = 0
    for step in range(20):
        delta = random_delta(report.circuit, rng)
        for device in delta.add_devices:
            if device.name.startswith("RECO"):
                device.name = f"{device.name}_{step}"
        # Every other step also deletes the device of a pin anchor.
        owners = [name.split(":")[0] for name, _ in (r["pair"] for r in report.records)
                  if ":" in name]
        owners = [name for name in owners if name not in delta.remove_devices]
        if step % 2 and owners:
            delta = NetlistDelta(add_devices=delta.add_devices,
                                 remove_devices=delta.remove_devices + owners[:1])
        extra = [tuple(pair) for pair in rng.choice(
            [r["pair"] for r in report.records], size=int(step % 3 == 0), replace=False)]
        prev = report
        report = engine.reannotate(prev, delta, seed=0, extra_pairs=extra)
        dropped += report.incremental["dropped"]
        # Untouched devices are shared; a replacement takes its slot and new
        # names are appended.
        removed = set(delta.remove_devices)
        added = {device.name for device in delta.add_devices}
        assert [device.name for device in report.circuit.devices] \
            == [device.name for device in prev.circuit.devices
                if device.name not in removed - added] \
            + [device.name for device in delta.add_devices if device.name not in removed]
        shared = {id(device) for device in prev.circuit.devices}
        for device in report.circuit.devices:
            assert device.name in added or not step or id(device) in shared
        survivors = [r["pair"] for r in prev.records
                     if report.graph.has_node(r["pair"][0])
                     and report.graph.has_node(r["pair"][1])]
        assert [r["pair"] for r in report.records] == survivors + extra
        assert report.index == record_index(report.records)
        scratch = engine.annotate(report.circuit,
                                  pairs=[r["pair"] for r in report.records], seed=0)
        assert dumps_canonical(report.records) == dumps_canonical(scratch.records)
    assert dropped > 0


def test_a_pickled_report_continues_the_chain(engine):
    """Pickling drops the graph and the index, keeps the sealed devices, and
    a chain continued from the copy gives the same records."""
    circuit = ssram(rows=2, cols=2).flatten()
    pairs = default_candidate_pairs(netlist_to_graph(circuit), max_candidates=20,
                                    rng=np.random.default_rng(3))
    report = engine.annotate(circuit, pairs=pairs, seed=0)
    rng = np.random.default_rng(8)
    for _ in range(2):
        victim = report.circuit.devices[int(rng.integers(len(report.circuit.devices)))]
        edited = copy.deepcopy(victim)
        edited.multiplier += 1
        report = engine.reannotate(
            report, NetlistDelta(add_devices=[edited], remove_devices=[victim.name]), seed=0)
    shipped = pickle.loads(pickle.dumps(report))
    assert shipped.graph is None and shipped.index is None
    assert shipped.records == report.records
    assert shipped.circuit.devices == report.circuit.devices
    with pytest.raises(AttributeError, match="sealed"):
        shipped.circuit.devices[0].name = "renamed"
    victim = report.circuit.devices[5]
    delta = NetlistDelta(remove_devices=[victim.name])
    here, there = engine.reannotate(report, delta, seed=0), engine.reannotate(shipped, delta, seed=0)
    assert there.incremental == here.incremental
    assert dumps_canonical(there.records) == dumps_canonical(here.records)
    assert there.index == here.index
