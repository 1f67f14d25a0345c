"""Tests for the graph substrate and its metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import Graph, edge_cut, graph_from_sparse, graph_imbalance
from repro.graph.metrics import graph_part_weights, validate_graph_partition
from repro.matrix.collection import collection_names, load_collection_matrix


def path_graph(n: int) -> Graph:
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return graph_from_sparse(a)


class TestGraph:
    def test_counts(self):
        g = path_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 4

    def test_neighbors_and_degree(self):
        g = path_graph(4)
        assert sorted(g.neighbors(1).tolist()) == [0, 2]
        assert g.degree(0) == 1
        assert g.degree(1) == 2

    def test_diagonal_ignored(self):
        a = sp.eye(3, format="csr") + sp.csr_matrix(
            ([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3)
        )
        g = graph_from_sparse(a)
        assert g.num_edges == 1

    def test_vertex_weights(self):
        a = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))
        g = graph_from_sparse(a, vwgt=[3, 4])
        assert g.total_vertex_weight() == 7

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Graph(2, [0, 1, 1], [1])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loops"):
            Graph(2, [0, 1, 1], [0], adjwgt=[1])

    def test_bad_adjacency_index(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [0, 1, 2], [5, 0])

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            graph_from_sparse(sp.csr_matrix((2, 3)))


def _lil_route(a):
    """``(xadj, adj, adjwgt)`` by the LIL round trip that drops the
    diagonal and stored zeros: the reference for the one-mask build."""
    a = sp.csr_matrix(a, copy=True).tolil()
    a.setdiag(0)
    a = a.tocsr()
    a.eliminate_zeros()
    a.sort_indices()
    return a.indptr, a.indices, a.data


def _assert_same_as_lil_route(a):
    g = graph_from_sparse(a)
    xadj, adj, adjwgt = _lil_route(a)
    assert np.array_equal(g.xadj, xadj)
    assert np.array_equal(g.adj, adj)
    assert np.array_equal(g.adjwgt, adjwgt)


class TestFromSparseMatchesLilRoute:
    @pytest.mark.parametrize("name", collection_names())
    def test_corpus_graph_models(self, name):
        # the graph model's input: edge weight = stored directions, with
        # the corpus matrix's own diagonal still stored
        a = load_collection_matrix(name, scale=0.1)
        pattern = sp.csr_matrix(
            (np.ones(a.nnz, dtype=np.int64), a.indices, a.indptr), shape=a.shape
        )
        sym = sp.csr_matrix(pattern + pattern.T)
        assert sym.diagonal().any()
        _assert_same_as_lil_route(sym)

    def test_explicit_zeros_duplicates_and_diagonal(self):
        # row 0: diagonal 7, (0,1) stored twice, (0,2) an explicit zero;
        # row 1: an explicit zero diagonal; row 2: unsorted, an explicit
        # zero, diagonal 5, and (2,3) stored twice summing to zero;
        # row 3: an explicit zero
        indptr = np.array([0, 4, 7, 12, 13])
        indices = np.array([1, 0, 2, 1, 0, 1, 2, 2, 1, 0, 3, 3, 2])
        data = np.array([1, 7, 0, 1, 2, 0, 3, 5, 3, 0, 4, -4, 0])
        a = sp.csr_matrix((data, indices, indptr), shape=(4, 4))
        untouched = (a.indptr.copy(), a.indices.copy(), a.data.copy())
        _assert_same_as_lil_route(a)
        g = graph_from_sparse(a)
        assert g.xadj.tolist() == [0, 1, 3, 4, 4]
        assert g.adj.tolist() == [1, 0, 2, 1]
        assert g.adjwgt.tolist() == [2, 2, 3, 3]
        # the caller's matrix is not reordered or summed under it
        for before, after in zip(untouched, (a.indptr, a.indices, a.data)):
            assert np.array_equal(before, after)


class TestMetrics:
    def test_edge_cut(self):
        g = path_graph(4)
        assert edge_cut(g, np.array([0, 0, 1, 1])) == 1
        assert edge_cut(g, np.array([0, 1, 0, 1])) == 3
        assert edge_cut(g, np.array([0, 0, 0, 0])) == 0

    def test_edge_cut_weighted(self):
        a = sp.csr_matrix(
            ([2.0, 2.0, 5.0, 5.0], ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(3, 3)
        )
        g = graph_from_sparse(a)
        assert edge_cut(g, np.array([0, 0, 1])) == 5
        assert edge_cut(g, np.array([0, 1, 1])) == 2

    def test_part_weights_and_imbalance(self):
        g = path_graph(4)
        part = np.array([0, 0, 0, 1])
        assert graph_part_weights(g, part, 2).tolist() == [3, 1]
        assert graph_imbalance(g, part, 2) == pytest.approx(0.5)

    def test_validate(self):
        g = path_graph(3)
        validate_graph_partition(g, np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            validate_graph_partition(g, np.array([0, 2, 0]), 2)
        with pytest.raises(ValueError):
            validate_graph_partition(g, np.array([0, 1]), 2)
