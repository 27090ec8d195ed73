"""The GPS trunk is batch-invariant, bit for bit.

A subgraph's ``CircuitGPS._trunk`` rows must not depend on which other
subgraphs share its batch: alone, in any sub-batch and in the full batch
they are byte-equal.  The serving engine's trunk cache
(:class:`repro.core.serve.AnnotationEngine`) relies on it, because a cached
row computed in one batch is served in another.  Attention pads every
subgraph by its own size (:func:`repro.nn.functional.padded_length`);
padding to the batch's longest subgraph broke this for ``transformer``.
"""

import numpy as np
import pytest

from repro.graph import Subgraph, collate, compute_pe, default_link_pipeline
from repro.models import CircuitGPS
from repro.nn import no_grad, use_dtype

KERNELS = [(attention, mpnn)
           for attention in ("transformer", "performer", "none")
           for mpnn in ("gatedgcn", "none")
           if not (attention == "none" and mpnn == "none")]


def hub_subgraph(num_nodes: int, rng) -> Subgraph:
    """A chain with random chords, far larger than the sampled subgraphs."""
    chain = np.stack([np.arange(num_nodes - 1), np.arange(1, num_nodes)])
    chords = rng.integers(0, num_nodes, size=(2, num_nodes // 2))
    chords = chords[:, chords[0] != chords[1]]
    edges = np.concatenate([chain, chords], axis=1)
    return Subgraph(node_ids=np.arange(num_nodes),
                    node_types=rng.integers(0, 3, size=num_nodes),
                    edge_index=edges, edge_types=rng.integers(0, 2, size=edges.shape[1]),
                    anchors=(0, num_nodes - 1), node_stats=rng.random((num_nodes, 13)))


def pair_subgraph(node_types, edge_type) -> Subgraph:
    """Two nodes and the edge between them: the smallest link subgraph."""
    return Subgraph(node_ids=np.arange(2), node_types=np.asarray(node_types),
                    edge_index=np.array([[0], [1]]), edge_types=np.array([edge_type]),
                    anchors=(0, 1), node_stats=np.ones((2, 13)))


@pytest.fixture(scope="module")
def subgraphs(small_design):
    rng = np.random.default_rng(3)
    sampled = default_link_pipeline(max_links=40, max_nodes_per_hop=15).run(
        small_design.graph, rng=0)
    extra = [pair_subgraph([0, 2], 0), pair_subgraph([2, 1], 1), hub_subgraph(70, rng),
             pair_subgraph([1, 1], 0)]
    picked = sampled[:24] + extra
    for subgraph in picked:
        compute_pe(subgraph, "dspd")
    order = rng.permutation(len(picked))
    return [picked[i] for i in order]


def trunk_rows(model, subgraphs, dtype) -> list[bytes]:
    """Each subgraph's trunk output rows, as bytes, from one batched call."""
    batch = collate(subgraphs)
    with no_grad(), use_dtype(dtype):
        out = model._trunk(batch).data
    bounds = batch.node_offsets.tolist()
    return [out[start:stop].tobytes() for start, stop in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("attention,mpnn", KERNELS,
                         ids=[f"{a}-{m}" for a, m in KERNELS])
def test_trunk_rows_do_not_depend_on_the_batch(subgraphs, attention, mpnn, dtype):
    model = CircuitGPS(dim=16, num_layers=2, pe_kind="dspd", pe_hidden=4,
                       attention=attention, mpnn=mpnn, dropout=0.0, rng=0)
    model = model.cast(dtype).eval()
    full = trunk_rows(model, subgraphs, dtype)
    sizes = sorted(s.num_nodes for s in subgraphs)
    assert sizes[0] == 2 and sizes[-1] == 70  # pair and hub subgraphs included
    for index, subgraph in enumerate(subgraphs):
        assert trunk_rows(model, [subgraph], dtype)[0] == full[index], index
    rng = np.random.default_rng(4)
    for size in (2, 3, 5, 9, 17):
        picked = rng.choice(len(subgraphs), size=size, replace=False)
        rows = trunk_rows(model, [subgraphs[i] for i in picked], dtype)
        for position, index in enumerate(picked.tolist()):
            assert rows[position] == full[index], (size, index)
