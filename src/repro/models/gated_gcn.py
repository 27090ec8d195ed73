"""Residual Gated Graph ConvNet (GatedGCN) layer with edge features.

GatedGCN (Bresson & Laurent, 2017) is the MPNN used inside the GPS layers of
the paper's best configurations (Tables III and VII), and — per
Observation 2 — is highly competitive even without any attention block.

Update rule (for a directed edge ``j -> i``)::

    e_ij' = A x_i + B x_j + C e_ij
    eta_ij = sigmoid(e_ij')
    x_i'  = U x_i + sum_j eta_ij * (V x_j) / (sum_j eta_ij + eps)

Residual connections, batch normalisation and ReLU are applied to both node
and edge streams, following the GraphGPS implementation.

The node-side linears run before the edge gathers: ``A x_i`` is computed as
``A(x)`` gathered at the targets and ``B x_j`` / ``V x_j`` as ``B(x)`` /
``V(x)`` gathered at the sources.  A linear map commutes with row selection,
so this is the same update with one node-row GEMM per linear instead of an
edge-row one (circuit subgraphs have several times as many directed edges
as nodes); only the float rounding of the GEMMs can differ, by ulps.  The
five ``Linear`` modules keep their ``A``/``B``/``C``/``U``/``V`` names and
shapes because saved checkpoints address their weights by those keys.
"""

from __future__ import annotations

import numpy as np

from ..nn import BatchNorm1d, Dropout, Linear, Module, Tensor
from ..nn import functional as F
from ..utils.rng import get_rng

__all__ = ["GatedGCNLayer"]


class GatedGCNLayer(Module):
    """One GatedGCN message-passing layer operating on directed edges."""

    def __init__(self, dim: int, dropout: float = 0.0, residual: bool = True, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.dim = int(dim)
        self.residual = bool(residual)
        self.A = Linear(dim, dim, rng=rng)
        self.B = Linear(dim, dim, rng=rng)
        self.C = Linear(dim, dim, rng=rng)
        self.U = Linear(dim, dim, rng=rng)
        self.V = Linear(dim, dim, rng=rng)
        self.bn_nodes = BatchNorm1d(dim)
        self.bn_edges = BatchNorm1d(dim)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, edge_attr: Tensor, edge_index: np.ndarray
                ) -> tuple[Tensor, Tensor]:
        """Run one round of message passing.

        Parameters
        ----------
        x:
            Node features ``(N, dim)``.
        edge_attr:
            Edge features ``(E, dim)`` aligned with ``edge_index`` columns.
        edge_index:
            Directed edges as an int array ``(2, E)`` (source row 0, target
            row 1).  Undirected graphs should pass each edge in both
            directions.
        """
        if edge_index.size == 0:
            return x, edge_attr
        src = edge_index[0]
        dst = edge_index[1]
        num_nodes = x.shape[0]

        edge_update = (self.A(x).gather_rows(dst) + self.B(x).gather_rows(src)
                       + self.C(edge_attr))
        gates = edge_update.sigmoid()

        messages = gates * self.V(x).gather_rows(src)
        aggregated = F.segment_sum(messages, dst, num_nodes)
        gate_sum = F.segment_sum(gates, dst, num_nodes) + 1e-6
        node_update = self.U(x) + aggregated / gate_sum

        node_out = self.bn_nodes(node_update).relu()
        edge_out = self.bn_edges(edge_update).relu()
        node_out = self.drop(node_out)
        if self.residual:
            node_out = node_out + x
            edge_out = edge_out + edge_attr
        return node_out, edge_out
