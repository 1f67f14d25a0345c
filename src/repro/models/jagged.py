"""Jagged (orthogonal recursive) 2D decomposition.

The intermediate point between 1D models and the fine-grain model, from the
line of work the paper builds on (Çatalyürek's thesis [2]): first split the
*rows* into R stripes with the 1D column-net hypergraph model (minimizing
expand volume of the row split), then split each stripe's *columns*
independently into C parts with a row-net model restricted to the stripe
(minimizing the fold volume inside the stripe).  The result is an ``R x C``
"jagged" grid: row stripes are global, column splits differ per stripe.

Like the checkerboard scheme, a processor communicates with at most
``R - 1 + C - 1`` others; unlike it, both phases explicitly minimize
volume — but still less effectively than the fine-grain model, which is the
comparison the ablation bench draws.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, as_rng, sorted_without_zeros
from repro.core.decomposition import Decomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.models.checkerboard import processor_grid
from repro.models.onedim import build_columnnet_model
from repro.partitioner import PartitionerConfig, partition_hypergraph
from repro._util import prefix_from_counts

__all__ = ["decompose_2d_jagged"]


def _colsplit_hypergraph(stripe: sp.csr_matrix) -> Hypergraph:
    """Row-net model of one stripe: vertices = columns with nonzeros in the
    stripe, nets = the stripe's rows; vertex weight = nonzeros in the
    column (the stripe's scalar multiplications using that column)."""
    csc = sp.csc_matrix(stripe)
    csc.sort_indices()
    m_cols = csc.shape[1]
    # nets are rows: build from CSR
    csr = sp.csr_matrix(stripe)
    csr.sort_indices()
    weights = np.bincount(csr.indices, minlength=m_cols).astype(INDEX_DTYPE)
    return Hypergraph(
        m_cols,
        csr.indptr.astype(INDEX_DTYPE),
        csr.indices.astype(INDEX_DTYPE),
        vertex_weights=weights,
        validate=False,
    )


def decompose_2d_jagged(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> Decomposition:
    """Jagged 2D decomposition of *a* onto ``processor_grid(k)``.

    Vector entry *j* is owned by the processor ``(stripe(j),
    colpart_stripe(j)(j))`` — the owner of the diagonal position — keeping
    the x/y distribution symmetric.
    """
    a = sorted_without_zeros(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("jagged decomposition requires a square matrix")
    m = a.shape[0]
    r, c = processor_grid(k)
    rng = as_rng(seed)
    cfg = config or PartitionerConfig()

    # phase 1: rows -> R stripes via the column-net model
    if r > 1:
        rows_model = build_columnnet_model(a, consistency=True)
        row_part = partition_hypergraph(
            rows_model.hypergraph, r, config=cfg, seed=rng
        ).part
    else:
        row_part = np.zeros(m, dtype=INDEX_DTYPE)

    # phase 2: within each stripe, columns -> C parts via a row-net model
    col_part_per_stripe = np.zeros((r, m), dtype=INDEX_DTYPE)
    for s in range(r):
        rows_in = np.flatnonzero(row_part == s)
        stripe = a[rows_in, :] if len(rows_in) else sp.csr_matrix((0, m))
        if c > 1 and stripe.nnz:
            h = _colsplit_hypergraph(sp.csr_matrix(stripe))
            col_part_per_stripe[s] = partition_hypergraph(
                h, c, config=cfg, seed=rng
            ).part
        # else: all columns in part 0 of the stripe

    coo = a.tocoo()
    nnz_row = coo.row.astype(INDEX_DTYPE)
    nnz_col = coo.col.astype(INDEX_DTYPE)
    stripe_of_nnz = row_part[nnz_row]
    nnz_owner = stripe_of_nnz * c + col_part_per_stripe[stripe_of_nnz, nnz_col]

    j = np.arange(m)
    vec_owner = row_part * c + col_part_per_stripe[row_part, j]
    return Decomposition(
        k=k,
        m=m,
        nnz_row=nnz_row,
        nnz_col=nnz_col,
        nnz_val=coo.data.astype(np.float64),
        nnz_owner=nnz_owner.astype(INDEX_DTYPE),
        x_owner=vec_owner.astype(INDEX_DTYPE),
        y_owner=vec_owner.astype(INDEX_DTYPE).copy(),
    )
