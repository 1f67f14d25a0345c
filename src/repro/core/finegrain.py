"""The fine-grain hypergraph model (§3 of the paper).

An ``M x M`` matrix **A** with ``Z`` nonzeros becomes a hypergraph with

* one **vertex** per nonzero ``a_ij`` — the atomic task computing the
  scalar product ``y_i^j = a_ij * x_j`` — with unit weight;
* one **row net** ``m_i`` per row, whose pins are the nonzeros of row *i*
  (the partial products folded into ``y_i``);
* one **column net** ``n_j`` per column, whose pins are the nonzeros of
  column *j* (the tasks that need ``x_j`` expanded to them).

Every vertex has exactly two nets (its row net and its column net).

**Consistency condition.**  The decode rule that keeps x/y distributions
symmetric assigns both ``x_j`` and ``y_j`` to the part of the diagonal
vertex ``v_jj``.  For zero diagonal entries a *dummy* vertex with weight 0
is added and pinned into both ``m_j`` and ``n_j`` (so ``Lambda[n_j]`` and
``Lambda[m_j]`` always intersect); zero weight keeps Eq. 1 untouched.

Net ordering inside the hypergraph: nets ``[0, M)`` are the row nets
``m_0..m_{M-1}``; nets ``[M, 2M)`` are the column nets ``n_0..n_{M-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, prefix_from_counts, sorted_without_zeros
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["FineGrainModel", "build_finegrain_model"]


@dataclass(frozen=True)
class FineGrainModel:
    """The fine-grain hypergraph of a matrix plus the nonzero <-> vertex maps."""

    #: the hypergraph to partition (M + N nets: row nets first, then columns)
    hypergraph: Hypergraph
    #: number of rows M
    m: int
    #: number of real (stored) nonzeros Z; vertices [0, Z) are real,
    #: vertices [Z, Z + n_dummy) are zero-weight dummy diagonal vertices
    nnz: int
    #: row index of every vertex (length Z + n_dummy)
    vertex_row: np.ndarray
    #: column index of every vertex
    vertex_col: np.ndarray
    #: numeric value of every real vertex's nonzero (length Z)
    vertex_val: np.ndarray
    #: vertex id of v_jj for every j (real diagonal or dummy); for the
    #: rectangular consistency-free model, -1 where no diagonal cell exists
    diag_vertex: np.ndarray
    #: number of columns N (== m for the paper's square setting)
    n_cols: int = -1

    def __post_init__(self) -> None:
        if self.n_cols < 0:
            object.__setattr__(self, "n_cols", self.m)

    @property
    def n_dummy(self) -> int:
        """Number of dummy diagonal vertices added for consistency."""
        return self.hypergraph.num_vertices - self.nnz

    def row_net(self, i: int) -> int:
        """Net id of row net ``m_i``."""
        return i

    def col_net(self, j: int) -> int:
        """Net id of column net ``n_j``."""
        return self.m + j

    def is_dummy(self, v: int) -> bool:
        """Whether vertex *v* is a zero-weight dummy diagonal vertex."""
        return v >= self.nnz


def build_finegrain_model(
    a: sp.spmatrix, consistency: bool = True
) -> FineGrainModel:
    """Build the fine-grain hypergraph model of sparse matrix *a*.

    ``consistency=True`` (the paper's sparse-matrix setting; requires a
    square matrix) adds the dummy diagonal vertices for zero diagonal
    entries; ``False`` builds the bare model appropriate for reduction
    problems without the symmetric x/y-partitioning requirement (§3) —
    including rectangular matrices, where inputs and outputs differ in
    count and no symmetric distribution exists.

    Explicitly stored zeros are dropped first: they would create vertices
    with real weight but no numeric effect.
    """
    a = sorted_without_zeros(a)
    if consistency and a.shape[0] != a.shape[1]:
        raise ValueError(
            "the consistent fine-grain model requires a square matrix; "
            "use consistency=False for rectangular reductions"
        )
    m, n = a.shape
    z = a.nnz

    coo = a.tocoo()
    vr = coo.row.astype(INDEX_DTYPE)
    vc = coo.col.astype(INDEX_DTYPE)
    vv = coo.data.astype(np.float64)

    diag_vertex = np.full(min(m, n), -1, dtype=INDEX_DTYPE)
    on_diag = vr == vc
    diag_vertex[vr[on_diag]] = np.flatnonzero(on_diag)

    if consistency:
        missing = np.flatnonzero(diag_vertex < 0)
        n_dummy = len(missing)
        diag_vertex[missing] = z + np.arange(n_dummy, dtype=INDEX_DTYPE)
        vr = np.concatenate([vr, missing])
        vc = np.concatenate([vc, missing])
    else:
        n_dummy = 0
    nv = z + n_dummy

    # row nets 0..M-1 then column nets M..M+N-1, built with counting sorts
    vertex_ids = np.arange(nv, dtype=INDEX_DTYPE)
    row_order = np.argsort(vr, kind="stable")
    col_order = np.argsort(vc, kind="stable")
    row_counts = np.bincount(vr, minlength=m)
    col_counts = np.bincount(vc, minlength=n)
    xpins = prefix_from_counts(np.concatenate([row_counts, col_counts]))
    pins = np.concatenate([vertex_ids[row_order], vertex_ids[col_order]])

    weights = np.ones(nv, dtype=INDEX_DTYPE)
    weights[z:] = 0  # dummies do not affect the balance model (Eq. 1)

    h = Hypergraph(
        nv,
        xpins,
        pins,
        vertex_weights=weights,
        net_costs=None,  # unit costs: each cut contributes lambda - 1 words
        validate=False,
    )
    return FineGrainModel(
        hypergraph=h,
        m=m,
        nnz=z,
        vertex_row=vr,
        vertex_col=vc,
        vertex_val=vv,
        diag_vertex=diag_vertex,
        n_cols=n,
    )
