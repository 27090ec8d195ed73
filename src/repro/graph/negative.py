"""Vectorised collision-free negative-link samplers.

The paper's recipe (Section III-B) permutes the endpoints of observed links;
this module generalises that into a small family of samplers, all operating
on numpy endpoint arrays with rejection *re*-sampling (the PyG idiom: encode
candidate pairs as scalar keys ``lo * n + hi``, reject collisions against a
sorted key set, redraw only the rejected rest) instead of testing one
candidate at a time:

* :func:`permute_negative_links` — re-pair the sources/targets of the
  positives (the paper's sampler).  Non-strict mode keeps the historical
  draw sequence byte-for-byte; in strict
  mode it *completes* to the exact requested count by enumerating the
  remaining feasible pairs, or raises :class:`NegativeSamplingError` with an
  actionable message when the graph cannot support the request.
* :func:`conditioned_negatives` — DGL-style uniform corruption: for every
  positive ``(u, v)`` draw ``k`` corrupt heads and ``k`` corrupt tails from
  same-node-type pools, emitted as conditioned ``[u, v, neg_heads,
  neg_tails]`` arrays (:class:`ConditionedNegatives`).
* :func:`stratified_negative_links` — corruption endpoints drawn from the
  same *(node type, degree-quantile)* stratum as the endpoint they replace,
  so negatives match the positives' hubness profile.

Every sampler preserves the node-type signature of its link type by
construction and never emits a pair colliding with the given positives (nor
with ``avoid``, when supplied).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import get_rng
from .hetero import LINK_TYPE_NAMES, Link

__all__ = [
    "NegativeSamplingError",
    "ConditionedNegatives",
    "permute_negative_links",
    "conditioned_negatives",
    "stratified_negative_links",
]

# Feasibility enumeration cap (cells of the |sources| x |targets| product);
# beyond this, strict mode raises instead of materialising the product.
_ENUM_CELL_BUDGET = 4_000_000


class NegativeSamplingError(ValueError):
    """The graph cannot support the requested number of negative links."""


def _type_name(link_type: int) -> str:
    return LINK_TYPE_NAMES.get(link_type, str(link_type))


def _links_by_type(links) -> dict[int, list[Link]]:
    by_type: dict[int, list[Link]] = {}
    for link in links:
        by_type.setdefault(link.link_type, []).append(link)
    return by_type


def _pair_keys(sources: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Order-free scalar key of each endpoint pair (``lo * n + hi``)."""
    return np.minimum(sources, targets) * n + np.maximum(sources, targets)


def _link_keys(links, n: int) -> np.ndarray:
    """Sorted unique keys of a link list."""
    if not links:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.array(
        [lo * n + hi for lo, hi in (link.key() for link in links)], dtype=np.int64,
    ))


def _in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in a *sorted unique* key array (searchsorted).

    Equivalent to ``np.isin(keys, sorted_keys)`` but skips re-sorting the
    haystack on every call — the haystack is maintained sorted across
    resampling rounds.
    """
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == sorted_keys.size] = sorted_keys.size - 1
    return sorted_keys[pos] == keys


# --------------------------------------------------------------------------- #
# Permute-endpoint sampling (the paper's recipe, vectorised)
# --------------------------------------------------------------------------- #
def _complete_exactly(sources: np.ndarray, targets: np.ndarray, seen: np.ndarray,
                      n: int, remaining: int, wanted: int, produced: int,
                      link_type: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Finish an exhausted rejection loop by enumerating the feasible pairs.

    Only runs on the path where the historical sampler silently
    under-delivered; raises :class:`NegativeSamplingError` when fewer than
    ``remaining`` distinct non-colliding pairs exist.
    """
    uniq_s = np.unique(sources)
    uniq_t = np.unique(targets)
    cells = int(uniq_s.size) * int(uniq_t.size)
    if cells > _ENUM_CELL_BUDGET:
        raise NegativeSamplingError(
            f"negative sampling for link type {_type_name(link_type)!r} exhausted "
            f"its draw budget with {produced}/{wanted} negatives, and the "
            f"{uniq_s.size} x {uniq_t.size} endpoint product is too large to "
            f"enumerate; retry with a larger max_tries"
        )
    ss = np.repeat(uniq_s, uniq_t.size)
    tt = np.tile(uniq_t, uniq_s.size)
    keys = _pair_keys(ss, tt, n)
    feasible = np.flatnonzero((ss != tt) & ~_in_sorted(keys, seen))
    _, first = np.unique(keys[feasible], return_index=True)
    feasible = feasible[np.sort(first)]
    if feasible.size < remaining:
        raise NegativeSamplingError(
            f"cannot draw {wanted} negatives for link type "
            f"{_type_name(link_type)!r}: only {produced + feasible.size} distinct "
            f"endpoint pairs avoid the observed links (graph too small or "
            f"near-complete for the requested ratio)"
        )
    picked = feasible[rng.choice(feasible.size, size=remaining, replace=False)]
    return ss[picked], tt[picked]


def permute_negative_links(positives, num_nodes: int, *, ratio: float = 1.0,
                           rng=None, max_tries: int = 50, strict: bool = True,
                           avoid=None) -> list[Link]:
    """Structural negatives by re-pairing the positives' endpoints.

    For each link type, sources and destinations of the given positive links
    are re-paired at random; a candidate is rejected if it coincides with a
    positive (or ``avoid`` link) or a previously generated negative.  The
    node types of each negative therefore match its link type by
    construction.  Candidates are drawn in vectorised batches; collisions are
    filtered against a sorted key set that persists across rounds, so no
    per-candidate Python loop is involved.

    With ``strict=True`` (default) the sampler delivers the *exact* requested
    count — when the random draw budget (``max_tries`` rounds worth of
    candidates) runs dry it enumerates the remaining feasible pairs, and
    raises :class:`NegativeSamplingError` if the graph cannot support the
    request (e.g. a near-complete graph at high ``ratio``).  With
    ``strict=False`` it reproduces the historical behaviour byte-for-byte,
    including silently under-delivering on exhaustion.
    """
    rng = get_rng(rng)
    positives = list(positives)
    n = max(int(num_nodes), 1)
    avoid_keys = _link_keys(positives if avoid is None else list(avoid) + positives, n)

    negatives: list[Link] = []
    for link_type, group in _links_by_type(positives).items():
        sources = np.array([l.source for l in group], dtype=np.int64)
        targets = np.array([l.target for l in group], dtype=np.int64)
        wanted = int(round(len(group) * ratio))
        seen = avoid_keys
        budget = max_tries * max(1, wanted)
        chosen_s: list[np.ndarray] = []
        chosen_t: list[np.ndarray] = []
        produced = 0
        tries = 0
        while produced < wanted and tries < budget:
            size = int(min(budget - tries, max(64, 2 * (wanted - produced))))
            tries += size
            s = sources[rng.integers(len(sources), size=size)]
            t = targets[rng.integers(len(targets), size=size)]
            keys = _pair_keys(s, t, n)
            candidates = np.flatnonzero((s != t) & ~_in_sorted(keys, seen))
            # Keep the first occurrence of each key, in draw order.
            _, first = np.unique(keys[candidates], return_index=True)
            picked = candidates[np.sort(first)][:wanted - produced]
            if picked.size:
                chosen_s.append(s[picked])
                chosen_t.append(t[picked])
                seen = np.union1d(seen, keys[picked])
                produced += int(picked.size)
        if strict and produced < wanted:
            extra_s, extra_t = _complete_exactly(sources, targets, seen, n,
                                                 wanted - produced, wanted,
                                                 produced, link_type, rng)
            chosen_s.append(extra_s)
            chosen_t.append(extra_t)
        if chosen_s:
            for s, t in zip(np.concatenate(chosen_s), np.concatenate(chosen_t)):
                negatives.append(Link(source=int(s), target=int(t), link_type=link_type,
                                      label=0.0, capacitance=0.0))
    return negatives


# --------------------------------------------------------------------------- #
# Conditioned uniform corruption (corrupt-head / corrupt-tail)
# --------------------------------------------------------------------------- #
@dataclass
class ConditionedNegatives:
    """DGL-style conditioned negatives of one link type.

    ``neg_heads[i, j]`` replaces ``u[i]`` (conditioned on ``v[i]``) and
    ``neg_tails[i, j]`` replaces ``v[i]`` (conditioned on ``u[i]``); a ``-1``
    entry marks a slot the sampler could not fill (only possible in
    non-strict mode).
    """

    link_type: int
    u: np.ndarray          # (P,) positive sources
    v: np.ndarray          # (P,) positive targets
    neg_heads: np.ndarray  # (P, k) corrupted heads
    neg_tails: np.ndarray  # (P, k) corrupted tails

    @property
    def num_negatives(self) -> int:
        """Filled negative slots across both corruption sides."""
        return int((self.neg_heads >= 0).sum() + (self.neg_tails >= 0).sum())

    def to_links(self) -> list[Link]:
        """Flatten to zero-labelled :class:`Link` objects (skipping ``-1``)."""
        links: list[Link] = []
        for i in range(self.u.shape[0]):
            for head in self.neg_heads[i]:
                if head >= 0:
                    links.append(Link(source=int(head), target=int(self.v[i]),
                                      link_type=self.link_type, label=0.0))
            for tail in self.neg_tails[i]:
                if tail >= 0:
                    links.append(Link(source=int(self.u[i]), target=int(tail),
                                      link_type=self.link_type, label=0.0))
        return links


def _corrupt_one_side(keep: np.ndarray, replaced: np.ndarray, pools: dict,
                      pool_of: np.ndarray, seen: np.ndarray, n: int, k: int,
                      max_tries: int, strict: bool, link_type: int, rng
                      ) -> np.ndarray:
    """Draw ``k`` replacements per row for one endpoint side.

    ``pool_of[i]`` indexes the candidate pool of row ``i`` (nodes sharing the
    replaced endpoint's stratum).  Rejection-resampling: only the slots that
    collide with ``seen`` (or form self-loops) are redrawn each round.
    """
    num = keep.shape[0]
    out = np.full((num, k), -1, dtype=np.int64)
    row = np.repeat(np.arange(num, dtype=np.int64), k)
    col = np.tile(np.arange(k, dtype=np.int64), num)
    pending_row, pending_col = row, col
    for _ in range(max(1, max_tries)):
        if pending_row.size == 0:
            break
        draws = np.empty(pending_row.size, dtype=np.int64)
        pool_ids = pool_of[pending_row]
        for pool_id in np.unique(pool_ids):
            pool = pools[int(pool_id)]
            mask = pool_ids == pool_id
            draws[mask] = pool[rng.integers(pool.size, size=int(mask.sum()))]
        anchors = keep[pending_row]
        keys = _pair_keys(draws, anchors, n)
        ok = (draws != anchors) & ~_in_sorted(keys, seen)
        out[pending_row[ok], pending_col[ok]] = draws[ok]
        pending_row, pending_col = pending_row[~ok], pending_col[~ok]
    if pending_row.size and strict:
        raise NegativeSamplingError(
            f"uniform negative sampling for link type {_type_name(link_type)!r} "
            f"could not fill {pending_row.size} corruption slot(s) within "
            f"{max_tries} resampling rounds; the candidate pools are nearly "
            f"saturated by observed links"
        )
    return out


def conditioned_negatives(node_types: np.ndarray, positives, *, k: int = 1,
                          rng=None, max_tries: int = 50, strict: bool = True,
                          avoid=None, degrees: np.ndarray | None = None,
                          bins: int = 1) -> list[ConditionedNegatives]:
    """Conditioned ``[u, v, neg_heads, neg_tails]`` negatives per link type.

    For every positive ``(u, v)``, ``k`` corrupt heads are drawn uniformly
    from the nodes sharing ``u``'s stratum and ``k`` corrupt tails from
    ``v``'s stratum, never colliding with the positives (or ``avoid``).  The
    stratum is the node type alone by default; passing ``degrees`` with
    ``bins > 1`` refines it to *(node type, degree-quantile bin)* — the
    degree-stratified sampler.
    """
    rng = get_rng(rng)
    node_types = np.asarray(node_types, dtype=np.int64)
    n = max(int(node_types.shape[0]), 1)
    positives = list(positives)
    seen = _link_keys(positives if avoid is None else list(avoid) + positives, n)

    strata = node_types
    if degrees is not None and bins > 1:
        degrees = np.asarray(degrees, dtype=np.int64)
        edges = np.unique(np.quantile(degrees, np.linspace(0.0, 1.0, bins + 1)[1:-1]))
        strata = node_types * (edges.size + 1) + np.searchsorted(edges, degrees,
                                                                 side="right")
    pools = {int(s): np.flatnonzero(strata == s).astype(np.int64)
             for s in np.unique(strata)}

    conditioned: list[ConditionedNegatives] = []
    for link_type, group in _links_by_type(positives).items():
        u = np.array([l.source for l in group], dtype=np.int64)
        v = np.array([l.target for l in group], dtype=np.int64)
        neg_heads = _corrupt_one_side(v, u, pools, strata[u], seen, n, k,
                                      max_tries, strict, link_type, rng)
        neg_tails = _corrupt_one_side(u, v, pools, strata[v], seen, n, k,
                                      max_tries, strict, link_type, rng)
        conditioned.append(ConditionedNegatives(link_type=link_type, u=u, v=v,
                                                neg_heads=neg_heads,
                                                neg_tails=neg_tails))
    return conditioned


def stratified_negative_links(node_types: np.ndarray, degrees: np.ndarray,
                              positives, *, k: int = 1, bins: int = 4, rng=None,
                              max_tries: int = 50, strict: bool = True,
                              avoid=None) -> list[Link]:
    """Degree/type-stratified corruption: replacements share the replaced
    endpoint's *(node type, degree-quantile)* stratum, so negatives keep the
    positives' hubness profile instead of skewing toward low-degree nodes."""
    batches = conditioned_negatives(node_types, positives, k=k, rng=rng,
                                    max_tries=max_tries, strict=strict,
                                    avoid=avoid, degrees=degrees, bins=bins)
    return [link for batch in batches for link in batch.to_links()]
