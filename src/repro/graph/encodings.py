"""Positional and structural encodings for sampled subgraphs (Section III-C).

Implements every encoding compared in Table II:

* ``dspd``  – the paper's double-anchor shortest-path distance: for each node
  the pair ``(d(i, m), d(i, n))`` of BFS distances to the two anchors, here
  one-hot encoded per distance bucket (an unreachable bucket included) so a
  single linear encoder can consume any PE.
* ``drnl``  – SEAL's double-radius node labelling hash, one-hot encoded.
* ``rwse``  – random-walk structural encoding: return probabilities
  ``diag(P^k)`` for ``k = 1..K``.
* ``lappe`` – eigenvectors of the symmetric normalised Laplacian belonging to
  the smallest non-trivial eigenvalues.
* ``stats`` – the circuit-statistics matrix ``X_C`` used *as if* it were a PE
  (the configuration Observation 1 warns about).
* ``none``  – no positional encoding.

Each registered encoding takes a :class:`~repro.graph.batch.Subgraph` and
returns a float array of shape ``(num_nodes, dim)``.  :func:`compute_pe_batch`
is the one entry point over a block (:class:`~repro.graph.batch.SubgraphBatch`)
and returns one ``(N, dim)`` array: ``dspd`` and ``drnl`` run as two
multi-source BFS sweeps over the block's edges as they are (the
single-subgraph functions run the same sweep over one subgraph's arrays),
and every other kind runs its :data:`repro.api.ENCODINGS` entry on each
``block[i]``.
"""

from __future__ import annotations

import numpy as np

from ..api.registries import ENCODINGS
from ..nn.dtypes import FLOAT64
from .batch import Subgraph, SubgraphBatch

__all__ = [
    "PE_KINDS",
    "pe_dim",
    "compute_pe",
    "compute_pe_batch",
    "dspd_encoding",
    "drnl_encoding",
    "rwse_encoding",
    "laplacian_encoding",
    "stats_encoding",
]

# Distances >= DSPD_MAX_DISTANCE (or unreachable) share the last bucket.
DSPD_MAX_DISTANCE = 4
DRNL_MAX_LABEL = 16
RWSE_STEPS = 8
LAPPE_DIM = 4

PE_KINDS = ("none", "stats", "drnl", "rwse", "lappe", "dspd")


def _dense_adjacency(subgraph: Subgraph, dtype=FLOAT64) -> np.ndarray:
    """Dense 0/1 adjacency built with one fancy-index assignment."""
    n = subgraph.num_nodes
    adjacency = np.zeros((n, n), dtype=dtype)
    if subgraph.edge_index.size:
        src, dst = subgraph.edge_index
        adjacency[src, dst] = 1
        adjacency[dst, src] = 1
    return adjacency


def _one_hot(values: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot rows of ``values`` (each already in ``[0, num_classes)``)."""
    encoded = np.zeros((values.shape[0], num_classes))
    encoded[np.arange(values.shape[0]), values] = 1.0
    return encoded


# --------------------------------------------------------------------------- #
# Individual encodings
# --------------------------------------------------------------------------- #
def dspd_encoding(subgraph: Subgraph, max_distance: int = DSPD_MAX_DISTANCE) -> np.ndarray:
    """Double-anchor shortest-path distance, one-hot per anchor.

    Unreachable nodes and nodes farther than ``max_distance`` fall into the
    last bucket, so the output dimension is ``2 * (max_distance + 1)``.
    For node-level subgraphs the two anchors coincide and ``D0 == D1``,
    exactly as described in Section IV-D.
    """
    return _dspd_encoding_batch(subgraph, max_distance)


def drnl_encoding(subgraph: Subgraph, max_label: int = DRNL_MAX_LABEL) -> np.ndarray:
    """SEAL's double-radius node labelling (perfect-hash variant), one-hot encoded.

    ``label(i) = 1 + min(dx, dy) + (d // 2) * (d // 2 + d % 2 - 1)`` with
    ``d = dx + dy``; the two anchors get label 1, unreachable nodes label 0.
    """
    return _drnl_encoding_batch(subgraph, max_label)


def rwse_encoding(subgraph: Subgraph, steps: int = RWSE_STEPS) -> np.ndarray:
    """Random-walk structural encoding: landing-back probabilities for 1..steps."""
    n = subgraph.num_nodes
    adjacency = _dense_adjacency(subgraph)
    degrees = adjacency.sum(axis=1)
    degrees[degrees == 0] = 1.0
    transition = adjacency / degrees[:, None]
    encoding = np.zeros((n, steps))
    power = np.eye(n)
    for k in range(steps):
        power = power @ transition
        encoding[:, k] = np.diag(power)
    return encoding


def laplacian_encoding(subgraph: Subgraph, dim: int = LAPPE_DIM) -> np.ndarray:
    """Eigenvectors of the symmetric normalised Laplacian (smallest non-trivial).

    Eigenvector signs are fixed deterministically (first non-zero entry made
    positive); if the subgraph has fewer than ``dim + 1`` nodes the encoding is
    zero-padded.
    """
    n = subgraph.num_nodes
    adjacency = _dense_adjacency(subgraph)
    degrees = adjacency.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    laplacian = np.eye(n) - (inv_sqrt[:, None] * adjacency * inv_sqrt[None, :])
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    order = np.argsort(eigenvalues)
    encoding = np.zeros((n, dim))
    # Skip the first (trivial) eigenvector.
    selected = order[1:dim + 1]
    for column, eig_index in enumerate(selected):
        vector = eigenvectors[:, eig_index]
        nonzero = np.nonzero(np.abs(vector) > 1e-12)[0]
        if nonzero.size and vector[nonzero[0]] < 0:
            vector = -vector
        encoding[:, column] = vector
    return encoding


def stats_encoding(subgraph: Subgraph) -> np.ndarray:
    """Use the circuit-statistics matrix ``X_C`` as a positional encoding.

    This is the ``X_C`` row of Table II: the configuration that *degrades*
    link-prediction generalisation (Observation 1).
    """
    if subgraph.node_stats is None:
        raise ValueError("subgraph has no node_stats; convert the graph with with_stats=True")
    stats = subgraph.node_stats
    scale = np.maximum(np.abs(stats).max(axis=0), 1e-9)
    return stats / scale


def pe_dim(kind: str, stats_dim: int = 13) -> int:
    """Output dimension of each PE kind (used to size the model's PE encoder)."""
    kind = kind.lower()
    if kind == "none":
        return 0
    if kind == "dspd":
        return 2 * (DSPD_MAX_DISTANCE + 1)
    if kind == "drnl":
        return DRNL_MAX_LABEL
    if kind == "rwse":
        return RWSE_STEPS
    if kind == "lappe":
        return LAPPE_DIM
    if kind == "stats":
        return stats_dim
    # Custom encodings registered in repro.api.ENCODINGS declare their output
    # width via a `dim` attribute on the registered function.
    encoder = ENCODINGS.get(kind)  # unknown kinds raise, listing what exists
    dim = getattr(encoder, "dim", None)
    if dim is None:
        raise ValueError(
            f"registered PE kind {kind!r} has no 'dim' attribute; set one on "
            "the encoding function so the model's PE encoder can be sized"
        )
    return int(dim)


def _batched_anchor_distances(block: SubgraphBatch | Subgraph, unreachable: int,
                              max_distance: int | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances to both anchors for every node of a block (or of one
    subgraph, the block of one without the collate).

    The block is one block-diagonal graph; because its components are
    disjoint, a single multi-source BFS from all first anchors gives every
    node the distance to *its own* subgraph's anchor.  Each BFS level
    relaxes the block's whole half-edge list at once, so the cost is a
    handful of array operations per level, whatever the block size.
    Returns ``(d0, d1)`` over the block's node rows.
    """
    total = block.num_nodes
    src, dst = block.edge_index
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    distances = []
    for sources in np.reshape(block.anchors, (-1, 2)).T:
        distance = np.full(total, unreachable, dtype=np.int64)
        reached = np.zeros(total, dtype=bool)
        distance[sources] = 0
        reached[sources] = True
        frontier = reached.copy()
        depth = 0
        while max_distance is None or depth < max_distance:
            depth += 1
            hit = dst[frontier[src]]
            hit = hit[~reached[hit]]
            if hit.size == 0:
                break
            reached[hit] = True
            distance[hit] = depth
            frontier = np.zeros(total, dtype=bool)
            frontier[hit] = True
        distances.append(distance)
    return distances[0], distances[1]


def _dspd_encoding_batch(block: SubgraphBatch | Subgraph,
                         max_distance: int = DSPD_MAX_DISTANCE) -> np.ndarray:
    d0, d1 = _batched_anchor_distances(block, unreachable=max_distance + 1,
                                       max_distance=max_distance)
    d0 = np.minimum(d0, max_distance)
    d1 = np.minimum(d1, max_distance)
    return np.concatenate([_one_hot(d0, max_distance + 1),
                           _one_hot(d1, max_distance + 1)], axis=1)


def _drnl_encoding_batch(block: SubgraphBatch | Subgraph,
                         max_label: int = DRNL_MAX_LABEL) -> np.ndarray:
    big = 10 ** 6
    dx, dy = _batched_anchor_distances(block, unreachable=big)
    d = dx + dy
    hashed = 1 + np.minimum(dx, dy) + (d // 2) * (d // 2 + d % 2 - 1)
    labels = np.where((dx < big) & (dy < big), hashed, 0)
    labels[np.ravel(block.anchors)] = 1
    labels = np.minimum(labels, max_label - 1)
    return _one_hot(labels, max_label)


_BATCHED = {"dspd": _dspd_encoding_batch, "drnl": _drnl_encoding_batch}


def compute_pe_batch(block: SubgraphBatch, kind: str = "dspd") -> np.ndarray:
    """The ``(N, dim)`` PE of every node row of ``block``.

    The BFS-based encodings (``dspd``, ``drnl``) run as two multi-source BFS
    sweeps over the whole block; every other kind (custom registrations
    included) runs its :data:`repro.api.ENCODINGS` entry on each
    ``block[i]``.  Unknown kinds raise a ``ValueError`` listing the
    registered ones.  The block itself is left unchanged.
    """
    kind = kind.lower()
    if kind in _BATCHED:
        return _BATCHED[kind](block)
    encoder = ENCODINGS.get(kind)
    return np.concatenate([np.asarray(encoder(subgraph), dtype=FLOAT64)
                           for subgraph in block])


def compute_pe(subgraph: Subgraph, kind: str = "dspd") -> np.ndarray:
    """Compute the requested PE for one subgraph and cache it on ``subgraph.pe``.

    Runs the kind's :data:`repro.api.ENCODINGS` entry on ``subgraph`` itself;
    the bytes equal ``compute_pe_batch(collate([subgraph]), kind)``.
    """
    subgraph.pe = np.array(ENCODINGS.get(kind.lower())(subgraph), dtype=FLOAT64)
    return subgraph.pe


def none_encoding(subgraph: Subgraph) -> np.ndarray:
    """The empty (zero-width) positional encoding of ``pe_kind="none"``."""
    return np.zeros((subgraph.num_nodes, 0))


# ----------------------------------------------------------------------- #
# Registry: every built-in PE kind is discoverable/pluggable via
# repro.api.ENCODINGS.  Custom encodings registered elsewhere must set a
# `dim` attribute on the function (see pe_dim) and take one Subgraph.
# ----------------------------------------------------------------------- #
ENCODINGS.register("none", none_encoding)
ENCODINGS.register("dspd", dspd_encoding)
ENCODINGS.register("drnl", drnl_encoding)
ENCODINGS.register("rwse", rwse_encoding)
ENCODINGS.register("lappe", laplacian_encoding)
ENCODINGS.register("stats", stats_encoding)
