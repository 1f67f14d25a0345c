"""Decompositions of a sparse matrix for parallel y = A x.

A :class:`Decomposition` records who owns what on K virtual processors:

* ``nnz_owner[e]`` — processor computing the scalar product of the *e*-th
  stored nonzero (entries ordered as in the matrix's COO form, row-major);
* ``x_owner[j]`` — processor holding ``x_j`` (expand source);
* ``y_owner[i]`` — processor accumulating ``y_i`` (fold destination).

The three models of the paper all produce this one representation:

* **2D fine-grain**: nonzeros are partitioned directly; the decode rule of
  §3 assigns ``x_j`` and ``y_j`` to ``part[v_jj]`` (always well-defined via
  the consistency condition);
* **1D rowwise** (graph model, column-net hypergraph model): a row partition
  owns every nonzero of its rows, and ``x``/``y`` conformally;
* **1D columnwise** (row-net hypergraph model): dually.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, ensure_int_array, sorted_without_zeros
from repro.core.finegrain import FineGrainModel

__all__ = [
    "Decomposition",
    "decomposition_from_finegrain",
    "decomposition_from_finegrain_rect",
    "decomposition_from_row_partition",
    "decomposition_from_col_partition",
]


@dataclass(frozen=True)
class Decomposition:
    """Ownership maps of a K-way 2D decomposition (see module docstring).

    ``m`` is the number of rows (length of y); ``n`` the number of columns
    (length of x), defaulting to ``m`` for the paper's square setting.
    Rectangular decompositions arise from the general reduction problems of
    §3, where inputs and outputs differ in count and no symmetric
    distribution exists.
    """

    k: int
    m: int
    #: COO coordinates of the stored nonzeros (row-major order)
    nnz_row: np.ndarray
    nnz_col: np.ndarray
    nnz_val: np.ndarray
    nnz_owner: np.ndarray
    x_owner: np.ndarray
    y_owner: np.ndarray
    #: number of columns; None (default) means square (n = m)
    n: int | None = None

    def __post_init__(self) -> None:
        if self.n is None:
            object.__setattr__(self, "n", self.m)
        for name in ("nnz_owner", "x_owner", "y_owner"):
            arr = getattr(self, name)
            if len(arr) and (arr.min() < 0 or arr.max() >= self.k):
                raise ValueError(f"{name} contains ids outside [0, {self.k})")
        if not (len(self.nnz_row) == len(self.nnz_col) == len(self.nnz_val) == len(self.nnz_owner)):
            raise ValueError("nonzero arrays must have equal length")
        if len(self.x_owner) != self.n:
            raise ValueError("x_owner must have length n (columns)")
        if len(self.y_owner) != self.m:
            raise ValueError("y_owner must have length m (rows)")

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return len(self.nnz_row)

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(rows, cols)``."""
        return (self.m, self.n)

    def computational_loads(self) -> np.ndarray:
        """Scalar multiplications per processor (the Eq. 1 load)."""
        return np.bincount(self.nnz_owner, minlength=self.k).astype(INDEX_DTYPE)

    def load_imbalance(self) -> float:
        """``(W_max - W_avg) / W_avg`` of the computational loads."""
        loads = self.computational_loads()
        avg = self.nnz / self.k
        if avg == 0:
            return 0.0
        return float((loads.max() - avg) / avg)

    def is_symmetric(self) -> bool:
        """Whether x and y are partitioned conformally (paper requirement;
        only possible for square matrices)."""
        return self.m == self.n and bool(
            np.array_equal(self.x_owner, self.y_owner)
        )

    def matrix(self) -> sp.csr_matrix:
        """Reassemble the decomposed matrix."""
        return sp.csr_matrix(
            (self.nnz_val, (self.nnz_row, self.nnz_col)), shape=self.shape
        )

    def local_matrix(self, p: int) -> sp.csr_matrix:
        """The nonzeros owned by processor *p*, as a full-shape matrix."""
        sel = self.nnz_owner == p
        return sp.csr_matrix(
            (self.nnz_val[sel], (self.nnz_row[sel], self.nnz_col[sel])),
            shape=self.shape,
        )


def decomposition_from_finegrain(
    model: FineGrainModel, part: np.ndarray, k: int
) -> Decomposition:
    """Decode a fine-grain hypergraph partition into a 2D decomposition.

    Implements the paper's decode: ``map[n_j] = map[m_j] = part[v_jj]`` —
    both ``x_j`` and ``y_j`` live with the diagonal vertex, which the
    consistency condition guarantees shares a part with pins of both nets.
    """
    part = ensure_int_array(part, "part")
    if len(part) != model.hypergraph.num_vertices:
        raise ValueError("part vector length mismatch")
    z = model.nnz
    vec_owner = part[model.diag_vertex]
    return Decomposition(
        k=k,
        m=model.m,
        nnz_row=model.vertex_row[:z].copy(),
        nnz_col=model.vertex_col[:z].copy(),
        nnz_val=model.vertex_val.copy(),
        nnz_owner=part[:z].copy(),
        x_owner=vec_owner.copy(),
        y_owner=vec_owner.copy(),
    )


def decomposition_from_finegrain_rect(
    model: FineGrainModel, part: np.ndarray, k: int
) -> Decomposition:
    """Decode a consistency-free (possibly rectangular) fine-grain partition.

    Without the symmetric-distribution requirement, §3 observes the model
    is already exact when every vector entry is assigned to *any* part in
    its net's connectivity set: ``x_j`` to some part of ``Lambda[n_j]``
    (expand volume = lambda - 1), ``y_i`` to some part of ``Lambda[m_i]``.
    We pick the part holding the most pins of the net (deterministic:
    lowest rank on ties); entries of empty rows/columns go to rank 0.
    """
    part = ensure_int_array(part, "part")
    if len(part) != model.hypergraph.num_vertices:
        raise ValueError("part vector length mismatch")
    z = model.nnz
    h = model.hypergraph
    m, n = model.m, model.n_cols

    def majority_owner(net_id: int) -> int:
        pins = h.pins_of(net_id)
        if len(pins) == 0:
            return 0
        counts = np.bincount(part[pins], minlength=k)
        return int(np.argmax(counts))

    y_owner = np.fromiter(
        (majority_owner(model.row_net(i)) for i in range(m)),
        dtype=INDEX_DTYPE, count=m,
    )
    x_owner = np.fromiter(
        (majority_owner(model.col_net(j)) for j in range(n)),
        dtype=INDEX_DTYPE, count=n,
    )
    return Decomposition(
        k=k,
        m=m,
        n=n,
        nnz_row=model.vertex_row[:z].copy(),
        nnz_col=model.vertex_col[:z].copy(),
        nnz_val=model.vertex_val.copy(),
        nnz_owner=part[:z].copy(),
        x_owner=x_owner,
        y_owner=y_owner,
    )


def _coo_arrays(a: sp.spmatrix):
    coo = sorted_without_zeros(a).tocoo()
    return (
        coo.row.astype(INDEX_DTYPE),
        coo.col.astype(INDEX_DTYPE),
        coo.data.astype(np.float64),
        a.shape[0],
    )


def decomposition_from_row_partition(
    a: sp.spmatrix, row_part: np.ndarray, k: int
) -> Decomposition:
    """1D rowwise decomposition: processor ``row_part[i]`` owns row *i*,
    ``y_i`` and (conformally) ``x_i``."""
    row, col, val, m = _coo_arrays(a)
    row_part = ensure_int_array(row_part, "row_part")
    if len(row_part) != m:
        raise ValueError("row_part must have one entry per row")
    return Decomposition(
        k=k,
        m=m,
        nnz_row=row,
        nnz_col=col,
        nnz_val=val,
        nnz_owner=row_part[row],
        x_owner=row_part.copy(),
        y_owner=row_part.copy(),
    )


def decomposition_from_col_partition(
    a: sp.spmatrix, col_part: np.ndarray, k: int
) -> Decomposition:
    """1D columnwise decomposition: processor ``col_part[j]`` owns column
    *j*, ``x_j`` and (conformally) ``y_j``."""
    row, col, val, m = _coo_arrays(a)
    col_part = ensure_int_array(col_part, "col_part")
    if len(col_part) != m:
        raise ValueError("col_part must have one entry per column")
    return Decomposition(
        k=k,
        m=m,
        nnz_row=row,
        nnz_col=col,
        nnz_val=val,
        nnz_owner=col_part[col],
        x_owner=col_part.copy(),
        y_owner=col_part.copy(),
    )
