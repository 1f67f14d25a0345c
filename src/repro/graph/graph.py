"""Undirected weighted graph in CSR (adjacency-list) form."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, ensure_int_array, prefix_from_counts

__all__ = ["Graph", "graph_from_sparse"]


class Graph:
    """Undirected graph with integer vertex and edge weights.

    Storage is symmetric CSR: every undirected edge ``{u, v}`` appears both
    in ``adj[u]`` and ``adj[v]`` with the same weight.  Self loops are not
    allowed (they are meaningless for partitioning and MeTiS also rejects
    them).
    """

    __slots__ = ("num_vertices", "xadj", "adj", "adjwgt", "vwgt", "_views")

    def __init__(
        self,
        num_vertices: int,
        xadj,
        adj,
        adjwgt=None,
        vwgt=None,
        validate: bool = True,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.xadj = ensure_int_array(xadj, "xadj")
        self.adj = ensure_int_array(adj, "adj")
        if adjwgt is None:
            self.adjwgt = np.ones(len(self.adj), dtype=INDEX_DTYPE)
        else:
            self.adjwgt = ensure_int_array(adjwgt, "adjwgt")
        if vwgt is None:
            self.vwgt = np.ones(self.num_vertices, dtype=INDEX_DTYPE)
        else:
            self.vwgt = ensure_int_array(vwgt, "vwgt")
        self._views: dict[str, object] = {}
        if validate:
            self._check()

    def _check(self) -> None:
        if len(self.xadj) != self.num_vertices + 1 or self.xadj[0] != 0:
            raise ValueError("xadj must have length n+1 and start at 0")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        if self.xadj[-1] != len(self.adj):
            raise ValueError("xadj[-1] must equal len(adj)")
        if len(self.adjwgt) != len(self.adj):
            raise ValueError("adjwgt length mismatch")
        if len(self.vwgt) != self.num_vertices:
            raise ValueError("vwgt length mismatch")
        if len(self.adj):
            if self.adj.min() < 0 or self.adj.max() >= self.num_vertices:
                raise ValueError("adjacency index out of range")
            src = self.source()
            if np.any(src == self.adj):
                raise ValueError("self loops are not allowed")
            # symmetry: multiset of (u,v,w) must equal multiset of (v,u,w)
            fwd = np.lexsort((self.adjwgt, self.adj, src))
            bwd = np.lexsort((self.adjwgt, src, self.adj))
            if not (
                np.array_equal(src[fwd], self.adj[bwd])
                and np.array_equal(self.adj[fwd], src[bwd])
                and np.array_equal(self.adjwgt[fwd], self.adjwgt[bwd])
            ):
                raise ValueError("adjacency structure is not symmetric")

    # -- accessors -------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.adj) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of *v* (a view)."""
        return self.adj[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbours of *v*."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_vertex_weight(self) -> int:
        """Sum of vertex weights (cached)."""
        return self._view("total_w", lambda: int(self.vwgt.sum()))

    # ------------------------------------------------------------------
    # cached derived views
    #
    # The graph is immutable after construction, so the structures the
    # partitioner's inner loops need are computed once and shared by every
    # FM and growing call on the same level (as ``Hypergraph._view`` does).
    # Callers must treat the returned objects as read-only.
    # ------------------------------------------------------------------
    def _view(self, key: str, make):
        views = self._views
        out = views.get(key)
        if out is None:
            out = views[key] = make()
        return out

    def xadj_list(self) -> list[int]:
        """``xadj`` as a plain list (cached; read-only)."""
        return self._view("xadj", self.xadj.tolist)

    def adj_list(self) -> list[int]:
        """``adj`` as a plain list (cached; read-only)."""
        return self._view("adj", self.adj.tolist)

    def adjwgt2_list(self) -> list[int]:
        """Twice ``adjwgt`` as a plain list (cached; read-only): the gain
        change a move makes to a neighbour across each edge."""
        return self._view("adjwgt2", lambda: (2 * self.adjwgt).tolist())

    def vwgt_list(self) -> list[int]:
        """``vwgt`` as a plain list (cached; read-only)."""
        return self._view("vwgt", self.vwgt.tolist)

    def source(self) -> np.ndarray:
        """Source vertex of every adjacency entry (cached; read-only)."""
        return self._view(
            "src",
            lambda: np.repeat(
                np.arange(self.num_vertices, dtype=INDEX_DTYPE), np.diff(self.xadj)
            ),
        )

    def max_weighted_degree(self) -> int:
        """Max over vertices of the total incident edge weight, at least 1
        (cached): the bound on an FM gain's magnitude."""

        def compute() -> int:
            wd = np.bincount(
                self.source(), weights=self.adjwgt, minlength=self.num_vertices
            )
            return max(int(wd.max(initial=1)), 1)

        return self._view("gain_bound", compute)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(V={self.num_vertices}, E={self.num_edges})"


def graph_from_sparse(adj_matrix: sp.spmatrix, vwgt=None) -> Graph:
    """Build a :class:`Graph` from a symmetric sparse adjacency matrix.

    Off-diagonal structure gives the edges (values are the edge weights and
    must be positive integers); the diagonal is ignored.
    """
    a = sp.csr_matrix(adj_matrix)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not a.has_canonical_format:
        a = a.copy()  # converting a CSR input shares the caller's arrays
        a.sum_duplicates()  # sorts the indices too
    # one mask drops the diagonal and the stored zeros
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    keep = (a.indices != rows) & (a.data != 0)
    xadj = prefix_from_counts(np.bincount(rows[keep], minlength=n))
    return Graph(n, xadj, a.indices[keep], adjwgt=a.data[keep], vwgt=vwgt)
