"""Per-subgraph reference of the PE-cache key (parity oracle).

One subgraph at a time, straight from its own arrays: the bytes every
built-in encoding reads.  The vectorised per-segment keys of
:func:`repro.core.data.pe_cache_keys` must equal these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pe_cache_key"]


def pe_cache_key(subgraph, pe_kind: str) -> tuple:
    """Kind, node count, local edges as ``(E, 2)`` int64 rows, local
    anchors as two int64 (plus the ``node_stats`` dtype and bytes for
    ``stats``)."""
    key = (
        pe_kind,
        subgraph.num_nodes,
        np.ascontiguousarray(subgraph.edge_index.T, dtype=np.int64).tobytes(),
        np.asarray(subgraph.anchors, dtype=np.int64).tobytes(),
    )
    if pe_kind == "stats":
        stats = np.ascontiguousarray(subgraph.node_stats)
        key += (stats.dtype.str, stats.tobytes())
    return key
