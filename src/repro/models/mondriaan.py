"""Mondriaan-style recursive 2D matrix splitting.

The fine-grain model's best-known descendant (Vastenhouw & Bisseling's
Mondriaan partitioner adopted both it and this scheme): recursively bisect
the *set of nonzeros*, at every step trying a rowwise and a columnwise 1D
hypergraph split of the current submatrix and keeping whichever cuts less.
The result is a hierarchy of rectangular-ish nonzero blocks — finer than
jagged (each region chooses its own direction) but coarser than the
fine-grain model (nonzeros of one row segment move together).

Included as a baseline ablation: on the paper's axis it sits between the
1D models and the fine-grain model, and measuring it shows how much of the
fine-grain gain comes from per-nonzero freedom versus merely going 2D.

Vector ownership (x_j, y_j must share a processor for the symmetric
distribution): the owner of the diagonal nonzero when it exists, otherwise
the candidate among the processors holding column *j* or row *j* that
saves the most transfer words, ties broken toward the lower rank.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, as_rng, prefix_from_counts, sorted_without_zeros
from repro.core.decomposition import Decomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.bisect import multilevel_bisect
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.recursive import bisection_epsilon

__all__ = ["decompose_2d_mondriaan"]


def _region_hypergraph(
    rows: np.ndarray, cols: np.ndarray
) -> tuple[Hypergraph, np.ndarray]:
    """Column-net hypergraph of a nonzero region.

    Vertices are the distinct row ids (weights = region nonzeros in the
    row); one net per distinct column pins the rows appearing in it.
    Returns ``(h, distinct_rows)``; partitioning h assigns region rows.
    """
    distinct_rows, row_local = np.unique(rows, return_inverse=True)
    weights = np.bincount(row_local).astype(INDEX_DTYPE)
    distinct_cols, col_local = np.unique(cols, return_inverse=True)
    order = np.lexsort((row_local, col_local))
    col_sorted = col_local[order]
    pins_all = row_local[order]
    # dedupe (col, row) pairs: a row pins a net once
    keep = np.empty(len(order), dtype=bool)
    if len(order):
        keep[0] = True
        keep[1:] = (col_sorted[1:] != col_sorted[:-1]) | (
            pins_all[1:] != pins_all[:-1]
        )
    sizes = np.bincount(col_sorted[keep], minlength=len(distinct_cols))
    xpins = prefix_from_counts(sizes)
    h = Hypergraph(
        len(distinct_rows),
        xpins,
        pins_all[keep],
        vertex_weights=weights,
        validate=False,
    )
    return h, distinct_rows


def _split_region(
    region: np.ndarray,
    nnz_row: np.ndarray,
    nnz_col: np.ndarray,
    k1: int,
    k2: int,
    eps: float,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    try_both: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect one nonzero region; returns (side0 indices, side1 indices)."""
    total = len(region)
    t0 = int(round(total * k1 / (k1 + k2)))
    targets = (t0, total - t0)

    def one_direction(axis_ids: np.ndarray, other_ids: np.ndarray):
        h, distinct = _region_hypergraph(axis_ids, other_ids)
        part, cut = multilevel_bisect(h, targets, eps, cfg, rng)
        lookup = np.zeros(int(axis_ids.max()) + 1, dtype=INDEX_DTYPE)
        lookup[distinct] = part
        return lookup[axis_ids], cut

    rsel, rcut = one_direction(nnz_row[region], nnz_col[region])
    if try_both:
        csel, ccut = one_direction(nnz_col[region], nnz_row[region])
        sel = csel if ccut < rcut else rsel
    else:
        sel = rsel
    return region[sel == 0], region[sel == 1]


def decompose_2d_mondriaan(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
    try_both: bool = True,
) -> Decomposition:
    """Recursive best-direction 2D decomposition of *a* onto K processors.

    ``try_both=False`` always splits rowwise (degenerating towards a
    recursive 1D scheme), exposed for the ablation.
    """
    a = sorted_without_zeros(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("mondriaan decomposition requires a square matrix")
    m = a.shape[0]
    coo = a.tocoo()
    nnz_row = coo.row.astype(INDEX_DTYPE)
    nnz_col = coo.col.astype(INDEX_DTYPE)
    cfg = config or PartitionerConfig()
    rng = as_rng(seed)
    eps = bisection_epsilon(cfg.epsilon, max(k, 2))

    owner = np.zeros(a.nnz, dtype=INDEX_DTYPE)
    stack: list[tuple[np.ndarray, int, int]] = [
        (np.arange(a.nnz, dtype=INDEX_DTYPE), k, 0)
    ]
    while stack:
        region, kk, offset = stack.pop()
        if kk <= 1 or len(region) == 0:
            owner[region] = offset
            continue
        k1 = (kk + 1) // 2
        k2 = kk - k1
        side0, side1 = _split_region(
            region, nnz_row, nnz_col, k1, k2, eps, cfg, rng, try_both
        )
        stack.append((side0, k1, offset))
        stack.append((side1, k2, offset + k1))

    vec_owner = _symmetric_vector_owners(m, k, nnz_row, nnz_col, owner)
    return Decomposition(
        k=k,
        m=m,
        nnz_row=nnz_row,
        nnz_col=nnz_col,
        nnz_val=coo.data.astype(np.float64),
        nnz_owner=owner,
        x_owner=vec_owner,
        y_owner=vec_owner.copy(),
    )


def _symmetric_vector_owners(
    m: int, k: int, nnz_row: np.ndarray, nnz_col: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Greedy conformal vector assignment (see module docstring)."""
    # processors holding nonzeros per column / per row, as sorted pair keys
    col_pairs = np.unique(nnz_col * k + owner)
    row_pairs = np.unique(nnz_row * k + owner)
    col_start = np.searchsorted(col_pairs // k, np.arange(m + 1))
    row_start = np.searchsorted(row_pairs // k, np.arange(m + 1))

    diag_owner = np.full(m, -1, dtype=INDEX_DTYPE)
    on_diag = nnz_row == nnz_col
    diag_owner[nnz_row[on_diag]] = owner[on_diag]

    out = np.empty(m, dtype=INDEX_DTYPE)
    for j in range(m):
        if diag_owner[j] >= 0:
            out[j] = diag_owner[j]
            continue
        col_owners = (col_pairs[col_start[j] : col_start[j + 1]] % k).tolist()
        row_owners = (row_pairs[row_start[j] : row_start[j + 1]] % k).tolist()
        cand = set(col_owners) | set(row_owners)
        if not cand:
            out[j] = j % k  # untouched index: spread round-robin
            continue
        col_set, row_set = set(col_owners), set(row_owners)
        out[j] = min(
            cand,
            key=lambda p: (-(p in col_set) - (p in row_set), p),
        )
    return out
