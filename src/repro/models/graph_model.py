"""The standard graph model for 1D (rowwise) matrix decomposition.

This is the paper's first baseline ("Standard Graph Model", partitioned
with MeTiS).  For a structurally symmetric matrix the model is the obvious
one: vertex *i* per row, edge ``{i, j}`` per symmetric nonzero pair.  For
nonsymmetric matrices we use the generalized form of Çatalyürek & Aykanat
(TPDS 1999): the pattern is symmetrized (``A + A^T``), and an edge gets
cost 2 when both ``a_ij`` and ``a_ji`` are stored (two words would cross
the cut in the symmetric-pattern reading) and cost 1 when only one is.

Vertex *i* is weighted by the number of nonzeros in row *i* — its share of
the scalar multiplications under a rowwise decomposition.

The well-known *flaw* of this model (the reason the paper's hypergraph
models win) is that the edge cut only approximates the true communication
volume: a vertex with cut edges to several neighbours in the same part is
charged once per edge but sends ``x_i`` only once per part.  The benchmark
harness therefore measures the *actual* volume of the induced decomposition
with the SpMV simulator, exactly as the paper's Table 2 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE
from repro.graph.graph import Graph, graph_from_sparse

__all__ = ["GraphModel", "build_standard_graph_model"]


@dataclass(frozen=True)
class GraphModel:
    """Standard graph model: partitioning its graph assigns rows."""

    graph: Graph
    m: int


def build_standard_graph_model(a: sp.spmatrix) -> GraphModel:
    """Build the standard (generalized) graph model of square matrix *a*."""
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("graph model requires a square matrix")
    a.eliminate_zeros()
    m = a.shape[0]

    pattern = sp.csr_matrix(
        (np.ones(a.nnz, dtype=np.int64), a.indices.copy(), a.indptr.copy()),
        shape=a.shape,
    )
    # edge weight = number of stored directions (1 or 2); the diagonal
    # is dropped by graph_from_sparse
    sym = pattern + pattern.T

    vwgt = np.diff(a.indptr).astype(INDEX_DTYPE)  # nnz per row
    # rows with zero nonzeros would have zero weight; the balance model
    # tolerates that, the partitioner places them freely
    g = graph_from_sparse(sym, vwgt=vwgt)
    return GraphModel(graph=g, m=m)
