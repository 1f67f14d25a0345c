"""Cartesian (checkerboard) 2D decomposition — the prior 2D baseline.

§1 of the paper: "The 2D checkerboard decomposition schemes proposed by
Hendrickson et al. [11] and Lewis and van de Geijn [15] are typically
suitable for dense matrices ... These schemes do not involve explicit
effort towards reducing communication volume."

This module implements that baseline so the claim can be measured.  The K
processors form an ``R x C`` grid.  Rows are split into R contiguous
stripes and columns into C contiguous stripes, each balanced by nonzero
count; nonzero ``a_ij`` goes to processor ``(row_stripe(i),
col_stripe(j))``.  Vector entry ``j`` lives with the processor owning the
diagonal position ``(j, j)``, which keeps the x/y distribution symmetric.

Communication structure (the appeal of the scheme): ``x_j`` is only ever
needed inside one processor *column* and partial ``y_i`` only inside one
processor *row*, so every processor exchanges messages with at most
``R - 1 + C - 1`` others — but the *volume* is whatever the sparsity
pattern dictates, with no optimization at all.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, sorted_without_zeros
from repro.core.decomposition import Decomposition

__all__ = ["processor_grid", "balanced_stripes", "decompose_2d_checkerboard"]


def processor_grid(k: int) -> tuple[int, int]:
    """Most-square factorization ``R x C = k`` with ``R <= C``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = int(math.isqrt(k))
    while k % r:
        r -= 1
    return r, k // r


def balanced_stripes(counts: np.ndarray, parts: int) -> np.ndarray:
    """Split ``range(len(counts))`` into contiguous stripes of roughly equal
    total count.

    Quantile cutting on the weighted prefix: index *i* goes to the stripe
    containing the midpoint of its count mass.  Stripes are contiguous and
    the assignment is monotone non-decreasing.
    """
    n = len(counts)
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if parts <= 1 or n == 0 or total == 0:
        return np.zeros(n, dtype=INDEX_DTYPE)
    midpoints = np.cumsum(counts) - counts / 2.0
    stripes = np.minimum((midpoints / total * parts).astype(INDEX_DTYPE), parts - 1)
    return stripes


def decompose_2d_checkerboard(a: sp.spmatrix, k: int) -> Decomposition:
    """Checkerboard-decompose *a* onto a ``processor_grid(k)`` mesh.

    Deterministic (no partitioner involved — that is the point of the
    baseline: zero effort toward reducing communication volume).
    """
    a = sorted_without_zeros(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("checkerboard decomposition requires a square matrix")
    m = a.shape[0]
    r, c = processor_grid(k)

    row_counts = np.diff(a.indptr)
    col_counts = np.bincount(a.indices, minlength=m)
    row_stripe = balanced_stripes(row_counts, r)
    col_stripe = balanced_stripes(col_counts, c)

    coo = a.tocoo()
    nnz_row = coo.row.astype(INDEX_DTYPE)
    nnz_col = coo.col.astype(INDEX_DTYPE)
    nnz_owner = row_stripe[nnz_row] * c + col_stripe[nnz_col]
    vec_owner = row_stripe * c + col_stripe  # owner of the (j, j) position
    return Decomposition(
        k=k,
        m=m,
        nnz_row=nnz_row,
        nnz_col=nnz_col,
        nnz_val=coo.data.astype(np.float64),
        nnz_owner=nnz_owner,
        x_owner=vec_owner.astype(INDEX_DTYPE),
        y_owner=vec_owner.astype(INDEX_DTYPE).copy(),
    )
