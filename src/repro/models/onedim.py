"""1D hypergraph models (column-net and row-net) of Çatalyürek & Aykanat.

These are the "1D Hypergraph Model" baseline of the paper's Table 2
(reference [4] there: TPDS 1999).

**Column-net model** (for rowwise decomposition): vertices are the *rows*
of A, weighted by the number of nonzeros in the row (the row's scalar
multiplications); there is one net per *column*, pinning every row with a
nonzero in that column.  Under a rowwise decomposition with conformal
vector distribution, a cut column net ``n_j`` with connectivity ``lambda_j``
forces the owner of ``x_j`` to expand it to ``lambda_j - 1`` other
processors — the connectivity-minus-one cutsize is exactly the expand
volume (rowwise SpMV needs no fold).

For the symmetric x/y distribution the model needs the same consistency
device as the fine-grain model: vertex *j* (row *j*) must be a pin of net
*j* (column *j*), which holds automatically when ``a_jj != 0`` and is
enforced by adding the pin otherwise.

**Row-net model** is the exact dual, for columnwise decomposition (fold
volume only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, prefix_from_counts, sorted_without_zeros
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["OneDimModel", "build_columnnet_model", "build_rownet_model"]


@dataclass(frozen=True)
class OneDimModel:
    """A 1D hypergraph model plus its interpretation."""

    hypergraph: Hypergraph
    #: "row" => partition assigns rows (column-net model);
    #: "col" => partition assigns columns (row-net model)
    orientation: str
    m: int


def _build(a_csc: sp.csc_matrix, orientation: str) -> OneDimModel:
    """Shared construction: nets from the CSC-major axis, vertices from the
    other axis.

    For ``orientation == "row"`` pass A in CSC form: nets are columns, pins
    are the row indices.  For ``orientation == "col"`` pass A.T in CSC form.
    """
    m = a_csc.shape[0]
    indptr = a_csc.indptr.astype(INDEX_DTYPE)
    indices = a_csc.indices.astype(INDEX_DTYPE)

    # vertex weights: nonzeros per vertex (= per row for the column-net
    # model), i.e. the scalar multiplications the vertex's stripe performs
    weights = np.bincount(indices, minlength=m).astype(INDEX_DTYPE)

    # consistency: ensure vertex j is a pin of net j
    netlists_need_fix: list[int] = []
    for j in range(m):
        lo, hi = indptr[j], indptr[j + 1]
        seg = indices[lo:hi]
        pos = np.searchsorted(seg, j)
        if pos >= len(seg) or seg[pos] != j:
            netlists_need_fix.append(j)

    if netlists_need_fix:
        sizes = np.diff(indptr).astype(INDEX_DTYPE)
        extra = np.zeros(m, dtype=INDEX_DTYPE)
        extra[netlists_need_fix] = 1
        new_sizes = sizes + extra
        xpins = prefix_from_counts(new_sizes)
        pins = np.empty(int(xpins[-1]), dtype=INDEX_DTYPE)
        for j in range(m):
            lo, hi = indptr[j], indptr[j + 1]
            out = xpins[j]
            n_old = hi - lo
            pins[out : out + n_old] = indices[lo:hi]
            if extra[j]:
                pins[out + n_old] = j
    else:
        xpins = indptr
        pins = indices

    h = Hypergraph(m, xpins, pins, vertex_weights=weights, validate=False)
    return OneDimModel(hypergraph=h, orientation=orientation, m=m)


def build_columnnet_model(a: sp.spmatrix, consistency: bool = True) -> OneDimModel:
    """Column-net model: partition rows, nets are columns."""
    a = sorted_without_zeros(a, "csc")
    if a.shape[0] != a.shape[1]:
        raise ValueError("1D models require a square matrix")
    model = _build(a, "row")
    if not consistency:
        # rebuild without the pin fix: use raw CSC arrays directly
        h = Hypergraph(
            a.shape[0],
            a.indptr.astype(INDEX_DTYPE),
            a.indices.astype(INDEX_DTYPE),
            vertex_weights=model.hypergraph.vertex_weights,
            validate=False,
        )
        return OneDimModel(hypergraph=h, orientation="row", m=a.shape[0])
    return model


def build_rownet_model(a: sp.spmatrix, consistency: bool = True) -> OneDimModel:
    """Row-net model: partition columns, nets are rows (dual of column-net)."""
    at = sorted_without_zeros(sp.csr_matrix(a).T, "csc")
    if at.shape[0] != at.shape[1]:
        raise ValueError("1D models require a square matrix")
    model = _build(at, "col")
    if not consistency:
        h = Hypergraph(
            at.shape[0],
            at.indptr.astype(INDEX_DTYPE),
            at.indices.astype(INDEX_DTYPE),
            vertex_weights=model.hypergraph.vertex_weights,
            validate=False,
        )
        return OneDimModel(hypergraph=h, orientation="col", m=at.shape[0])
    return model
