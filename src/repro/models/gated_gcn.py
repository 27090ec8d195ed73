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

Between the linears and the batch norms the layer records two tape nodes:
the edge update ``A(x)[dst] + B(x)[src] + C(e)`` in one buffer, and the
gated mean (sigmoid, messages, two segment sums, ``+ 1e-6``, divide).
Their backwards run the composed Tensor expression's steps in its order,
and their parents are ordered so that ``x``'s gradient sums in that order
too: outputs and gradients are byte-identical to the composed expression.
Off the tape the same functions run forward only, in their own buffers.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..nn import BatchNorm1d, Dropout, Linear, Module, Tensor, kernels
from ..nn.tensor import on_tape
from ..utils.rng import get_rng

__all__ = ["GatedGCNLayer"]


class _EdgeRows:
    """One call's edges and the flat row indices of their scatters.

    Each index is built on first use, then shared by the forward sums and
    the backward scatters of that call; nothing outlives the call's tape.
    The scatters over the sources run only in backward.
    """

    def __init__(self, edge_index: np.ndarray, width: int):
        self.src = edge_index[0]
        self.dst = edge_index[1]
        self.width = width

    @cached_property
    def flat_src(self) -> np.ndarray:
        return kernels.row_index(self.src, self.width)

    @cached_property
    def flat_dst(self) -> np.ndarray:
        return kernels.row_index(self.dst, self.width)


def _edge_update(ax: Tensor, bx: Tensor, ce: Tensor, rows: _EdgeRows) -> Tensor:
    """``A(x)[dst] + B(x)[src] + C(e)``, summed into one buffer: one tape node."""
    out = ax.data[rows.dst]
    out += bx.data[rows.src]
    out += ce.data
    if not on_tape(ax, bx, ce):
        return Tensor(out)

    def backward(grad):
        num_nodes = ax.shape[0]
        if ax.requires_grad:
            ax._accumulate(kernels.scatter_rows(grad, rows.flat_dst, num_nodes))
        if bx.requires_grad:
            bx._accumulate(kernels.scatter_rows(grad, rows.flat_src, num_nodes))
        if ce.requires_grad:
            ce._accumulate(grad)

    return ax._make(out, (ax, bx, ce), backward, "gated_edge_update")


def _gated_mean(edge_update: Tensor, vx: Tensor, rows: _EdgeRows) -> Tensor:
    """``sum_j eta_ij V x_j / (sum_j eta_ij + 1e-6)`` per target node, with
    ``eta = sigmoid(edge_update)``: one tape node.

    Forward and backward are the steps of the composed Tensor expression, in
    its order, so the output and each gradient match it.
    """
    num_nodes = vx.shape[0]
    tape = on_tape(edge_update, vx)
    gates = kernels.sigmoid(edge_update.data)
    v_src = vx.data[rows.src]
    messages = gates * v_src if tape else np.multiply(v_src, gates, out=v_src)
    aggregated = kernels.scatter_rows(messages, rows.flat_dst, num_nodes)
    gate_sum = kernels.scatter_rows(gates, rows.flat_dst, num_nodes)
    gate_sum += 1e-6
    if not tape:
        aggregated /= gate_sum
        return Tensor(aggregated)
    out = aggregated / gate_sum

    def backward(grad):
        grad_messages = (grad / gate_sum)[rows.dst]
        grad_sum = -grad * aggregated / gate_sum ** 2
        grad_gates = grad_messages * v_src
        grad_gates += grad_sum[rows.dst]
        if vx.requires_grad:
            grad_messages *= gates
            vx._accumulate(kernels.scatter_rows(grad_messages, rows.flat_src, num_nodes))
        if edge_update.requires_grad:
            grad_gates *= gates
            grad_gates *= 1.0 - gates
            edge_update._accumulate(grad_gates)

    # Parents in this order make backward's depth-first walk finish the
    # linears' matmuls in the composed expression's order (B, A, V, then U),
    # so ``x``'s gradient contributions sum in the same order as there.
    return vx._make(out, (vx, edge_update), backward, "gated_mean")


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
        rows = _EdgeRows(edge_index, self.dim)
        edge_update = _edge_update(self.A(x), self.B(x), self.C(edge_attr), rows)
        aggregated = _gated_mean(edge_update, self.V(x), rows)
        node_update = self.U(x) + aggregated

        node_out = self.bn_nodes(node_update).relu()
        edge_out = self.bn_edges(edge_update).relu()
        node_out = self.drop(node_out)
        if self.residual:
            node_out = node_out + x
            edge_out = edge_out + edge_attr
        return node_out, edge_out
