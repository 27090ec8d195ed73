"""Property and regression tests for the vectorised negative samplers.

The hypothesis properties pin the sampler family's contract: negatives never
collide with observed links, endpoint node types are preserved, strict mode
delivers the exact requested count, and every sampler is deterministic under
(spawned) seeds.  The regression tests cover the non-strict failure mode —
silent under-delivery when the rejection budget runs dry — which strict mode
must turn into either an exact completion or an actionable
:class:`NegativeSamplingError`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from repro.graph import (
    Link,
    NegativeSamplingError,
    SeedBatch,
    conditioned_negatives,
    permute_negative_links,
    stratified_negative_links,
)
from repro.graph.datapipe import UniformNegativeStage

LINK_TYPES = (2, 3, 4)  # pin-net, pin-pin, net-net


def _keys(links) -> set[tuple[int, int]]:
    return {link.key() for link in links}


@st.composite
def positive_sets(draw):
    """A node count plus a duplicate-free list of typed positive links."""
    n = draw(st.integers(min_value=8, max_value=40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        min_size=2, max_size=20,
        unique_by=lambda p: (min(p), max(p)),
    ))
    types = draw(st.lists(st.sampled_from(LINK_TYPES),
                          min_size=len(pairs), max_size=len(pairs)))
    links = [Link(a, b, t, label=1.0, capacitance=1e-15)
             for (a, b), t in zip(pairs, types)]
    return n, links


class TestPermuteProperties:
    @settings(max_examples=60, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_no_collision_and_exact_count(self, case, seed):
        """Strict permutation: disjoint from positives, unique, exact count."""
        n, positives = case
        try:
            negatives = permute_negative_links(positives, n, ratio=1.0,
                                               rng=default_rng(seed))
        except NegativeSamplingError:
            return  # the graph genuinely cannot support ratio=1.0 — valid
        assert not _keys(positives) & _keys(negatives)
        assert all(link.source != link.target for link in negatives)
        # Exact per-type counts and per-type uniqueness (the collision set is
        # per link type, matching the historical sampler).
        for link_type in LINK_TYPES:
            group = [l for l in positives if l.link_type == link_type]
            got = [l.key() for l in negatives if l.link_type == link_type]
            assert len(got) == int(round(len(group) * 1.0))
            assert len(got) == len(set(got))

    @settings(max_examples=60, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_endpoint_pools_preserved(self, case, seed):
        """Negatives re-pair endpoints from their link type's own pools."""
        n, positives = case
        try:
            negatives = permute_negative_links(positives, n, ratio=1.0,
                                               rng=default_rng(seed))
        except NegativeSamplingError:
            return
        for link_type in LINK_TYPES:
            group = [l for l in positives if l.link_type == link_type]
            sources = {l.source for l in group}
            targets = {l.target for l in group}
            for neg in (l for l in negatives if l.link_type == link_type):
                assert neg.source in sources
                assert neg.target in targets
                assert neg.label == 0.0 and neg.capacitance == 0.0

    @settings(max_examples=40, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_deterministic_under_spawned_seeds(self, case, seed):
        """Identical (spawned) seed streams reproduce identical negatives."""
        n, positives = case
        children = np.random.SeedSequence(seed).spawn(2)

        def run(entropy):
            try:
                return permute_negative_links(positives, n, ratio=1.0,
                                              rng=default_rng(entropy))
            except NegativeSamplingError:
                return "raised"

        assert run(children[0]) == run(children[0])
        assert run(children[1]) == run(children[1])
        assert run(seed) == run(seed)

    @settings(max_examples=40, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_avoid_links_never_emitted(self, case, seed):
        """Pairs listed in ``avoid`` are rejected like positives."""
        n, positives = case
        avoid = [Link(l.target, l.source, l.link_type) for l in positives[:3]]
        try:
            negatives = permute_negative_links(positives, n, ratio=0.5,
                                               rng=default_rng(seed), avoid=avoid)
        except NegativeSamplingError:
            return
        assert not (_keys(positives) | _keys(avoid)) & _keys(negatives)


class TestConditionedProperties:
    @settings(max_examples=50, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16), st.integers(1, 3))
    def test_node_type_signature_preserved(self, case, seed, k):
        """Each corruption replaces an endpoint with a same-node-type node."""
        n, positives = case
        rng = default_rng(seed)
        node_types = rng.integers(0, 3, size=n)
        batches = conditioned_negatives(node_types, positives, k=k,
                                        rng=default_rng(seed), strict=False)
        for batch in batches:
            assert batch.neg_heads.shape == (batch.u.shape[0], k)
            assert batch.neg_tails.shape == (batch.v.shape[0], k)
            for i in range(batch.u.shape[0]):
                for head in batch.neg_heads[i]:
                    if head >= 0:
                        assert node_types[head] == node_types[batch.u[i]]
                for tail in batch.neg_tails[i]:
                    if tail >= 0:
                        assert node_types[tail] == node_types[batch.v[i]]

    @settings(max_examples=50, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_uniform_stage_negatives_avoid_observed_links(self, case, seed):
        n, positives = case
        # The stage reads only the node types and the observed links.
        graph = SimpleNamespace(node_types=np.zeros(n, dtype=np.int64),
                                links=positives)
        _, seeds = UniformNegativeStage(k=1, strict=False)(
            graph, SeedBatch(positives=positives), rng=default_rng(seed))
        negatives = seeds.negatives
        assert len(negatives) == sum(b.num_negatives for b in seeds.conditioned)
        assert len(negatives) <= 2 * len(positives)
        assert not _keys(positives) & _keys(negatives)
        assert all(link.source != link.target for link in negatives)
        assert all(link.label == 0.0 for link in negatives)

    def test_uniform_stage_flattens_2k_same_type_negatives(self):
        """Strict: exactly ``2 * k`` negatives per positive, each sharing
        the node type of the endpoint it replaces and the positive's link
        type, and none on an observed link of the graph."""
        node_types = np.repeat(np.array([0, 1], dtype=np.int64), 20)
        positives = [Link(i, 20 + i, 2) for i in range(5)]
        observed = positives + [Link(i, 20 + j, 2)
                                for i in range(5) for j in range(5) if i != j]
        graph = SimpleNamespace(node_types=node_types, links=observed)
        k = 3
        _, seeds = UniformNegativeStage(k=k, strict=True)(
            graph, SeedBatch(positives=positives), rng=default_rng(0))
        negatives = seeds.negatives
        assert len(negatives) == 2 * k * len(positives)
        assert not _keys(observed) & _keys(negatives)
        for link in negatives:
            assert link.link_type == 2 and link.label == 0.0
            assert node_types[link.source] == 0 and node_types[link.target] == 1
        # Per positive: k corrupt heads keep its target, k corrupt tails keep
        # its source.
        for positive in positives:
            heads = [l for l in negatives if l.target == positive.target
                     and l.source != positive.source]
            tails = [l for l in negatives if l.source == positive.source
                     and l.target != positive.target]
            assert len(heads) == k and len(tails) == k

    @settings(max_examples=30, deadline=None)
    @given(positive_sets(), st.integers(0, 2**16))
    def test_stratified_respects_type_and_determinism(self, case, seed):
        n, positives = case
        rng = default_rng(seed)
        node_types = rng.integers(0, 3, size=n)
        degrees = rng.integers(0, 12, size=n)

        def run():
            return stratified_negative_links(node_types, degrees, positives,
                                             k=1, bins=3, strict=False,
                                             rng=default_rng(seed))

        first, second = run(), run()
        assert first == second
        for neg in first:
            # A stratum refines the node type, so types still match some
            # endpoint of a same-type positive.
            assert not _keys(positives) & {neg.key()}

    def test_strict_exact_count_on_well_provisioned_graph(self):
        """Strict uniform corruption fills every slot when pools are ample."""
        n = 40
        node_types = np.zeros(n, dtype=np.int64)
        positives = [Link(i, i + 1, 4) for i in range(0, 10, 2)]
        batches = conditioned_negatives(node_types, positives, k=3,
                                        rng=default_rng(0), strict=True)
        (batch,) = batches
        assert batch.num_negatives == 2 * 3 * len(positives)
        assert (batch.neg_heads >= 0).all() and (batch.neg_tails >= 0).all()


class TestStrictModeRegression:
    """Satellite 1: duplicate collisions must not silently shrink the batch."""

    # A sparse graph where one round of rejection sampling (max_tries=1)
    # cannot deliver ratio=3.0, but plenty of feasible pairs exist.
    SPARSE = [Link(i, i + 1, 4) for i in range(0, 20, 2)]
    N = 21

    def test_non_strict_under_delivers_on_exhausted_budget(self):
        negatives = permute_negative_links(self.SPARSE, self.N, ratio=3.0,
                                           rng=default_rng(0), max_tries=1,
                                           strict=False)
        assert len(negatives) < 30  # the historical silent failure mode

    def test_strict_completes_to_exact_count(self):
        negatives = permute_negative_links(self.SPARSE, self.N, ratio=3.0,
                                           rng=default_rng(0), max_tries=1,
                                           strict=True)
        assert len(negatives) == 30
        keys = [l.key() for l in negatives]
        assert len(set(keys)) == 30
        assert not _keys(self.SPARSE) & set(keys)

    def test_strict_raises_actionably_on_complete_graph(self):
        """On a complete graph no negative exists: strict must say so."""
        n = 6
        positives = [Link(a, b, 4) for a in range(n) for b in range(a + 1, n)]
        with pytest.raises(NegativeSamplingError, match="cannot draw .*net-net"):
            permute_negative_links(positives, n, ratio=1.0, rng=default_rng(0))
        # Non-strict keeps the legacy behaviour: silently returns fewer.
        assert permute_negative_links(positives, n, ratio=1.0,
                                      rng=default_rng(0), strict=False) == []

    def test_strict_finds_the_only_feasible_pair_on_near_complete_graph(self):
        """K6 minus two edges: exactly one pair is reachable by re-pairing.

        ``(0, 1)`` cannot be produced — node 1 never appears as a target and
        node 0 never as a source among the remaining positives — so ``(2, 3)``
        is the single feasible negative.  Strict mode must find exactly it for
        ``wanted == 1`` and raise (reporting the true feasible count) for
        ``wanted == 2``.
        """
        n = 6
        positives = [Link(a, b, 4) for a in range(n) for b in range(a + 1, n)
                     if (a, b) not in {(0, 1), (2, 3)}]
        negatives = permute_negative_links(positives, n, ratio=1 / len(positives),
                                           rng=default_rng(0), max_tries=2)
        assert _keys(negatives) == {(2, 3)}
        with pytest.raises(NegativeSamplingError, match="only 1 distinct"):
            permute_negative_links(positives, n, ratio=2 / len(positives),
                                   rng=default_rng(0), max_tries=2)

    def test_strict_uniform_raises_when_pools_saturated(self):
        """Corrupting within one 3-clique of a 3-node type pool is infeasible."""
        node_types = np.array([1, 1, 1, 0, 0], dtype=np.int64)
        positives = [Link(0, 1, 3), Link(1, 2, 3), Link(0, 2, 3)]
        with pytest.raises(NegativeSamplingError, match="corruption slot"):
            conditioned_negatives(node_types, positives, k=1, rng=default_rng(0),
                                  strict=True, max_tries=5)
        batches = conditioned_negatives(node_types, positives, k=1,
                                        rng=default_rng(0), strict=False,
                                        max_tries=5)
        assert batches[0].num_negatives == 0
