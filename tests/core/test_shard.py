"""Tests for chip-scale sharded annotation and incremental re-annotation.

Covers the shard planner (``repro.core.shard``), the sharded engine path
(:meth:`AnnotationEngine.annotate_sharded`) and ECO re-annotation
(:meth:`AnnotationEngine.reannotate`).  The central contract: with explicit
pairs and deterministic extraction, sharded results equal unsharded results
at the canonical wire encoding, and incremental re-annotation carries
unaffected records over byte-identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serve import NetlistAnnotation, affected_names, default_candidate_pairs
from repro.core.shard import (
    FlatShardPlan,
    HierarchyShardPlan,
    Shard,
    plan_shards,
)
from repro.core.server import dumps_canonical
from repro.graph import netlist_to_graph
from repro.netlist import (Circuit, Device, Mosfet, NetlistDelta, Resistor,
                           hierarchical_sram, ssram)
from repro.netlist.devices import copy_device


@pytest.fixture(scope="module")
def hier_circuit() -> Circuit:
    return ssram(rows=4, cols=2)


@pytest.fixture(scope="module")
def flat_circuit(hier_circuit) -> Circuit:
    return hier_circuit.flatten()


@pytest.fixture(scope="module")
def full_graph(flat_circuit):
    return netlist_to_graph(flat_circuit)


@pytest.fixture(scope="module")
def pairs(full_graph):
    """Explicit candidate pairs drawn over the whole design."""
    return default_candidate_pairs(full_graph, max_candidates=24,
                                   rng=np.random.default_rng(3))


def canonical_records(annotation) -> bytes:
    return dumps_canonical(annotation.records)


# --------------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------------- #
class TestPlanShards:
    def test_hierarchical_circuit_uses_hierarchy_strategy(self, hier_circuit):
        plan = plan_shards(hier_circuit, num_shards=3, hops=2)
        assert isinstance(plan, HierarchyShardPlan)
        assert plan.strategy == "hierarchy"
        assert 1 <= plan.num_shards <= 3
        cells = len(hier_circuit.devices) + len(hier_circuit.instances)
        assert sum(shard.num_owned for shard in plan.shards) == cells
        # Shard sources stay hierarchical; flattening is the worker's job.
        assert all(isinstance(shard.source, Circuit) for shard in plan.shards)

    def test_flat_circuit_falls_back_to_flat_strategy(self, flat_circuit):
        plan = plan_shards(flat_circuit, num_shards=3, hops=2)
        assert isinstance(plan, FlatShardPlan)
        assert plan.strategy == "flat"

    def test_bare_graph_uses_flat_strategy(self, full_graph):
        plan = plan_shards(full_graph, num_shards=4, hops=1)
        assert plan.strategy == "flat"
        assert sum(s.num_owned for s in plan.shards) == full_graph.num_nodes

    def test_rejects_unshardable_input(self):
        with pytest.raises(TypeError, match="cannot shard"):
            plan_shards({"not": "a design"}, num_shards=2, hops=1)

    def test_rejects_nonpositive_shard_count(self, full_graph):
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards(full_graph, num_shards=0, hops=1)

    def test_flat_halo_must_cover_extraction_hops(self, full_graph):
        with pytest.raises(ValueError, match="halo_hops"):
            FlatShardPlan(full_graph, num_shards=2, hops=3, halo_hops=1)

    def test_hierarchy_cell_halo_must_cover_extraction_hops(self, hier_circuit):
        with pytest.raises(ValueError, match="cell_halo"):
            HierarchyShardPlan(hier_circuit, num_shards=2, hops=8, cell_halo=1)

    def test_every_node_has_exactly_one_owner(self, hier_circuit, full_graph):
        plan = plan_shards(hier_circuit, num_shards=3, hops=2)
        for name in full_graph.node_names:
            owner = plan.owner_of(name)
            owners = [s.index for s in plan.shards if s.owns_name(name)]
            assert owners == [owner]

    def test_owner_of_unknown_name_raises(self, hier_circuit):
        plan = plan_shards(hier_circuit, num_shards=2, hops=2)
        with pytest.raises(KeyError):
            plan.owner_of("NOT_A_NODE")

    def test_describe_is_json_safe(self, hier_circuit):
        plan = plan_shards(hier_circuit, num_shards=3, hops=2)
        summary = plan.describe()
        assert summary["strategy"] == "hierarchy"
        assert summary["num_shards"] == plan.num_shards
        assert summary["owned_sizes"] == [s.num_owned for s in plan.shards]

    def test_assign_routes_cross_shard_pairs_to_union_shards(
            self, hier_circuit, pairs):
        plan = plan_shards(hier_circuit, num_shards=3, hops=2)
        assignments = plan.assign(pairs)
        covered = sorted(p for _, positions in assignments for p in positions)
        assert covered == list(range(len(pairs)))
        for shard, positions in assignments:
            for position in positions:
                name_a, name_b = pairs[position]
                # The annotating shard owns both anchors (union shards own
                # the merged set of both constituents).
                assert shard.owns_name(name_a) and shard.owns_name(name_b)

    def test_shard_owns_name_resolves_scopes_nets_and_pins(self):
        shard = Shard(index=0, source=None, num_owned=2,
                      owned_nets={"BL0", "M1"}, owned_scopes={"XCELL"})
        assert shard.owns_name("BL0")
        assert shard.owns_name("M1:D")          # device pin -> device name
        assert shard.owns_name("XCELL/int")     # hierarchical scope
        assert not shard.owns_name("WL3")
        assert not shard.owns_name("XOTHER/int")


# --------------------------------------------------------------------------- #
# Sharded annotation (engine level)
# --------------------------------------------------------------------------- #
class TestAnnotateSharded:
    def test_hierarchy_sharded_matches_unsharded_wire_bytes(
            self, server_engine, hier_circuit, full_graph, pairs):
        """The halo-containment contract, end to end: sharding along the
        hierarchy must not change a single canonical record."""
        unsharded = server_engine.annotate(full_graph, pairs=pairs, seed=0)
        sharded = server_engine.annotate_sharded(hier_circuit, pairs=pairs,
                                                 num_shards=3, seed=0)
        assert canonical_records(sharded) == canonical_records(unsharded)
        assert sharded.design == unsharded.design
        assert [tuple(r["pair"]) for r in sharded.records] == list(pairs)

    def test_flat_sharded_matches_unsharded_wire_bytes(
            self, server_engine, flat_circuit, full_graph, pairs):
        unsharded = server_engine.annotate(full_graph, pairs=pairs, seed=0)
        sharded = server_engine.annotate_sharded(flat_circuit, pairs=pairs,
                                                 num_shards=4, seed=0)
        assert canonical_records(sharded) == canonical_records(unsharded)

    def test_fork_pool_matches_serial_shards(self, server_engine, hier_circuit,
                                             pairs):
        serial = server_engine.annotate_sharded(hier_circuit, pairs=pairs,
                                                num_shards=3, max_workers=0,
                                                seed=0)
        forked = server_engine.annotate_sharded(hier_circuit, pairs=pairs,
                                                num_shards=3, max_workers=2,
                                                seed=0)
        assert canonical_records(forked) == canonical_records(serial)

    def test_candidate_mode_draws_owned_pairs_per_shard(self, server_engine,
                                                        hier_circuit):
        plan = plan_shards(hier_circuit, num_shards=3,
                           hops=server_engine.config.data.hops)
        annotation = server_engine.annotate_sharded(hier_circuit,
                                                    num_shards=3,
                                                    max_candidates=5, seed=7)
        assert 0 < len(annotation.records) <= 5 * plan.num_shards
        for record in annotation.records:
            name_a, name_b = record["pair"]
            # Both anchors of a shard-local candidate share one owner.
            assert plan.owner_of(name_a) == plan.owner_of(name_b)

    def test_candidate_mode_is_deterministic(self, server_engine, hier_circuit):
        first = server_engine.annotate_sharded(hier_circuit, num_shards=3,
                                               max_candidates=5, seed=7)
        again = server_engine.annotate_sharded(hier_circuit, num_shards=3,
                                               max_candidates=5, seed=7)
        assert canonical_records(first) == canonical_records(again)

    def test_sharded_keeps_the_hierarchical_circuit(self, server_engine,
                                                    hier_circuit, pairs):
        annotation = server_engine.annotate_sharded(hier_circuit, pairs=pairs,
                                                    num_shards=2, seed=0)
        assert annotation.circuit is hier_circuit

    def test_gravity_partition_localizes_macros_and_keeps_parity(
            self, server_engine):
        """Banked designs take the weight-aware gravity partition: each
        shard's circuit holds only its own bank macros (the memory bound),
        and the wire bytes still match the unsharded reference."""
        banked = hierarchical_sram(banks=6, rows=4, cols=2)
        plan = plan_shards(banked, num_shards=3,
                           hops=server_engine.config.data.hops)
        assert plan.partition == "gravity"
        for shard in plan.shards:
            included_banks = sum(
                1 for inst in shard.source.instances
                if inst.subckt_name == "HSRAM_BANK")
            assert included_banks == 2, (
                f"shard {shard.index} flattens {included_banks} of 6 banks; "
                "the halo should stay local to the owned banks"
            )
        graph = netlist_to_graph(banked.flatten())
        pairs = default_candidate_pairs(graph, max_candidates=48,
                                        rng=np.random.default_rng(11))
        unsharded = server_engine.annotate(graph, pairs=pairs, seed=0)
        sharded = server_engine.annotate_sharded(banked, pairs=pairs,
                                                 num_shards=3, seed=0)
        assert canonical_records(sharded) == canonical_records(unsharded)


# --------------------------------------------------------------------------- #
# Incremental re-annotation
# --------------------------------------------------------------------------- #
@pytest.fixture()
def prev_report(server_engine, flat_circuit, pairs):
    return server_engine.annotate(flat_circuit, pairs=pairs, seed=0)


def _eco_delta(flat_circuit, pairs) -> NetlistDelta:
    """Remove a device on the first candidate pair's net and add a resistor
    there, so at least one annotated pair is genuinely affected."""
    target_net = pairs[0][0]
    (victim,) = [d for d in flat_circuit.devices
                 if target_net in d.terminals.values()][:1]
    return NetlistDelta(
        add_devices=[Resistor("RECO", {"P": target_net, "N": "eco_new"},
                              resistance=1e3)],
        remove_devices=[victim.name],
    )


class TestReannotate:
    def test_matches_full_reannotation_on_the_new_circuit(
            self, server_engine, flat_circuit, pairs, prev_report):
        delta = _eco_delta(flat_circuit, pairs)
        incremental = server_engine.reannotate(prev_report, delta, seed=0)
        full = server_engine.annotate(delta.apply(flat_circuit),
                                      pairs=[r["pair"] for r in
                                             incremental.records], seed=0)
        assert canonical_records(incremental) == canonical_records(full)

    def test_unaffected_records_are_carried_over_verbatim(
            self, server_engine, flat_circuit, pairs, prev_report):
        delta = _eco_delta(flat_circuit, pairs)
        result = server_engine.reannotate(prev_report, delta, seed=0)
        summary = result.incremental
        assert summary["reused"] > 0 and summary["recomputed"] > 0
        by_pair = {tuple(r["pair"]): r for r in prev_report.records}
        reused = [r for r in result.records
                  if r == by_pair.get(tuple(r["pair"]))]
        # Every carried-over record is byte-identical to its predecessor
        # (recomputed ones may *also* coincide, hence >=).
        assert len(reused) >= summary["reused"]
        assert summary["reused"] + summary["recomputed"] + summary["dropped"] \
            == len(prev_report.records)

    def test_empty_delta_reuses_everything(self, server_engine, prev_report):
        result = server_engine.reannotate(prev_report, NetlistDelta(), seed=0)
        assert result.incremental == {
            "reused": len(prev_report.records), "recomputed": 0,
            "dropped": 0, "added": 0}
        assert canonical_records(result) == canonical_records(prev_report)

    def test_extra_pairs_are_appended(self, server_engine, flat_circuit,
                                      pairs, prev_report):
        delta = _eco_delta(flat_circuit, pairs)
        extra = ("eco_new", list(flat_circuit.devices[1].terminals.values())[0])
        result = server_engine.reannotate(prev_report, delta, seed=0,
                                          extra_pairs=[extra])
        assert result.incremental["added"] == 1
        assert tuple(result.records[-1]["pair"]) == extra

    def test_requires_the_previous_circuit(self, server_engine, full_graph,
                                           pairs):
        bare = server_engine.annotate(full_graph, pairs=pairs, seed=0)
        assert bare.circuit is None
        with pytest.raises(RuntimeError, match="circuit"):
            server_engine.reannotate(bare, NetlistDelta(), seed=0)

    def test_incremental_summary_roundtrips_through_the_payload(
            self, server_engine, flat_circuit, pairs, prev_report):
        result = server_engine.reannotate(prev_report,
                                          _eco_delta(flat_circuit, pairs), seed=0)
        payload = result.as_dict()
        assert payload["incremental"] == result.incremental
        restored = NetlistAnnotation.from_payload(payload)
        assert restored.incremental == result.incremental
        # Full runs omit the key entirely.
        assert "incremental" not in prev_report.as_dict()


def two_graph_affected(old_flat: Circuit, delta: NetlistDelta, hops: int) -> set[str]:
    """Names within ``hops`` of a changed node in the pre- *or* post-change
    graph: the search that built both graphs (test oracle)."""
    changed = set(delta.touched_nets(old_flat)) | set(delta.remove_devices)
    removed = set(delta.remove_devices)
    for device in old_flat.devices:
        if device.name in removed:
            changed.update(f"{device.name}:{t}" for t in device.terminals)
    for device in delta.add_devices:
        changed.add(device.name)
        changed.update(f"{device.name}:{t}" for t in device.terminals)
    affected: set[str] = set()
    for circuit in (old_flat, delta.apply(old_flat)):
        graph = netlist_to_graph(circuit, with_stats=False)
        anchors = sorted(graph.node_index(n) for n in changed if graph.has_node(n))
        if anchors:
            reached = graph.csr.k_hop(np.asarray(anchors, dtype=np.int64), hops)
            affected.update(graph.node_names[int(i)] for i in reached)
    return affected


def random_delta(flat: Circuit, rng: np.random.Generator) -> NetlistDelta:
    """Random removals, additions and in-place edits on ``flat``'s nets.

    Some removed devices come back under their own name (an in-place edit),
    as one of the kinds :func:`edit_device` makes.
    """
    devices = list(flat.devices)
    existing = sorted(flat.nets)
    nets = existing + [f"eco_net{i}" for i in range(3)]
    picked = rng.choice(len(devices), size=int(rng.integers(0, 4)), replace=False)
    remove = [devices[int(i)].name for i in picked]
    add = []
    for i in range(int(rng.integers(0, 4))):
        p, n = (str(net) for net in rng.choice(nets, size=2, replace=False))
        add.append(Resistor(f"RECO{i}", {"P": p, "N": n}))
    for i in picked[:int(rng.integers(0, len(remove) + 1))]:
        add.append(edit_device(devices[int(i)], rng, existing, nets))
    return NetlistDelta(add_devices=add, remove_devices=remove)


def edit_device(device: Device, rng: np.random.Generator, existing: list[str],
                nets: list[str]) -> Device:
    """An in-place edit of ``device``, one of four kinds at random: a resize
    (same type, terminals and nets; new width, length or multiplier), one
    pin moved to another ``existing`` net, another terminal count on the
    device's own nets, or a MOSFET on random ``nets`` (some of them fresh)."""
    kind = int(rng.integers(4))
    edited = copy_device(device)
    if kind == 0:
        sizes = [name for name in ("width", "length") if hasattr(edited, name)]
        size = str(rng.choice(sizes + ["multiplier"]))
        if size == "multiplier":
            edited.multiplier += 1
        else:
            setattr(edited, size, getattr(edited, size) * float(rng.choice((0.5, 2.0))))
    elif kind == 1:
        terminal = str(rng.choice(list(edited.terminals)))
        edited.terminals[terminal] = str(rng.choice(existing))
    elif kind == 2:
        own = device.nets
        if len(own) == 2:
            edited = Mosfet(device.name, dict(zip("DGSB", own + own)))
        else:
            edited = Resistor(device.name, {"P": own[0], "N": own[-1]})
    else:
        d, g, src, b = (str(net) for net in rng.choice(nets, size=4))
        edited = Mosfet(device.name, {"D": d, "G": g, "S": src, "B": b})
    return edited


class TestAffectedNames:
    """The post-change graph alone finds every affected surviving node, and
    the pre-change graph every deleted one."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hops=st.sampled_from([1, 2]),
           rows=st.integers(1, 3), cols=st.integers(1, 2))
    def test_matches_the_two_graph_search_on_survivors(self, seed, hops, rows, cols):
        flat = ssram(rows=rows, cols=cols).flatten()
        delta = random_delta(flat, np.random.default_rng(seed))
        new_graph = netlist_to_graph(delta.apply(flat), with_stats=False)
        oracle = {name for name in two_graph_affected(flat, delta, hops)
                  if new_graph.has_node(name)}
        old_graph = netlist_to_graph(flat, with_stats=False)
        names = affected_names(old_graph, delta, new_graph, hops)
        assert {name for name in names if new_graph.has_node(name)} == oracle
        # It also names every node the delta deletes, so the record merge
        # finds the records to drop without testing every record.
        assert set(old_graph.node_names) - set(new_graph.node_names) <= names


# --------------------------------------------------------------------------- #
# Seed-stream hygiene at the serve level
# --------------------------------------------------------------------------- #
class TestAnnotateManySeedStreams:
    def test_nearby_base_seeds_do_not_share_candidate_streams(
            self, server_engine, full_graph):
        """Regression for additive ``seed + i`` derivation: seed 0's second
        design used to reuse seed 1's first design's RNG stream."""
        designs = [full_graph, full_graph]
        seed0 = server_engine.annotate_many(designs, max_candidates=12, seed=0)
        seed1 = server_engine.annotate_many(designs, max_candidates=12, seed=1)
        assert canonical_records(seed0[1]) != canonical_records(seed1[0])

    def test_seed_offset_matches_the_single_call_streams(
            self, server_engine, full_graph):
        designs = [full_graph] * 3
        whole = server_engine.annotate_many(designs, max_candidates=12, seed=5)
        grouped = (server_engine.annotate_many(designs[:1], max_candidates=12,
                                               seed=5)
                   + server_engine.annotate_many(designs[1:], max_candidates=12,
                                                 seed=5, seed_offset=1))
        assert [canonical_records(a) for a in whole] \
            == [canonical_records(a) for a in grouped]
