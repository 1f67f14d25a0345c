"""End-to-end tests of the one-call decomposition API (invariants 1, 7, 8)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    decompose_1d_columnnet,
    decompose_1d_graph,
    decompose_1d_rownet,
    decompose_2d_finegrain,
    simulate_spmv,
)
from repro.spmv import communication_stats


@pytest.fixture(scope="module")
def test_matrix():
    rng = np.random.default_rng(0)
    a = sp.random(120, 120, density=0.05, random_state=rng, format="lil")
    a.setdiag(rng.uniform(0.5, 1.0, 120))
    return sp.csr_matrix(a)


ALL_APIS = [
    decompose_2d_finegrain,
    decompose_1d_columnnet,
    decompose_1d_rownet,
    decompose_1d_graph,
]


class TestAllModels:
    @pytest.mark.parametrize("fn", ALL_APIS)
    def test_valid_symmetric_decomposition(self, fn, test_matrix):
        dec, info = fn(test_matrix, 4, seed=0)
        assert dec.k == 4
        assert dec.is_symmetric()
        assert dec.nnz == test_matrix.nnz
        assert info.imbalance <= 0.06  # eps=0.03 plus integer rounding slack

    @pytest.mark.parametrize("fn", ALL_APIS)
    def test_numerics(self, fn, test_matrix):
        dec, _ = fn(test_matrix, 4, seed=1)
        x = np.random.default_rng(2).standard_normal(120)
        res = simulate_spmv(dec, x)
        assert np.allclose(res.y, test_matrix @ x)

    @pytest.mark.parametrize("fn", ALL_APIS)
    def test_deterministic(self, fn, test_matrix):
        d1, _ = fn(test_matrix, 4, seed=7)
        d2, _ = fn(test_matrix, 4, seed=7)
        assert np.array_equal(d1.nnz_owner, d2.nnz_owner)
        assert np.array_equal(d1.x_owner, d2.x_owner)


class TestExactness:
    def test_finegrain_cutsize_equals_volume(self, test_matrix):
        """The headline theorem on an *optimized* partition."""
        dec, info = decompose_2d_finegrain(test_matrix, 8, seed=0)
        stats = communication_stats(dec)
        assert stats.total_volume == info.cutsize

    def test_columnnet_cutsize_equals_volume(self, test_matrix):
        dec, info = decompose_1d_columnnet(test_matrix, 8, seed=0)
        stats = communication_stats(dec)
        assert stats.total_volume == info.cutsize
        assert stats.fold_volume == 0

    def test_rownet_cutsize_equals_volume(self, test_matrix):
        dec, info = decompose_1d_rownet(test_matrix, 8, seed=0)
        stats = communication_stats(dec)
        assert stats.total_volume == info.cutsize
        assert stats.expand_volume == 0

    def test_graph_model_cut_only_approximates(self, test_matrix):
        """The graph model's known flaw: edge cut >= true volume typically,
        and in general differs from it."""
        dec, info = decompose_1d_graph(test_matrix, 8, seed=0)
        stats = communication_stats(dec)
        # measured volume is a real quantity; edge cut an approximation.
        # no exact equality is expected, both are positive here.
        assert stats.total_volume > 0
        assert info.edge_cut > 0


class TestMessageBounds:
    def test_bounds_hold(self, test_matrix):
        k = 8
        for fn, bound in [
            (decompose_1d_graph, k - 1),
            (decompose_1d_columnnet, k - 1),
            (decompose_1d_rownet, k - 1),
            (decompose_2d_finegrain, 2 * (k - 1)),
        ]:
            dec, _ = fn(test_matrix, k, seed=0)
            stats = communication_stats(dec)
            assert stats.max_messages <= bound, fn.__name__


class TestInputIsNotMutated:
    """Fingerprinting canonicalizes a copy: the caller's arrays keep their
    order, duplicates and flags."""

    @staticmethod
    def unsorted_with_duplicates():
        # row 0 lists columns 2, 0, 1, 0 (column 0 twice); rows 2, 3 are sorted
        indptr = np.array([0, 4, 4, 6, 7])
        indices = np.array([2, 0, 1, 0, 0, 3, 1])
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        return sp.csr_matrix((data, indices, indptr), shape=(4, 4))

    @staticmethod
    def arrays(a):
        return a.indptr.copy(), a.indices.copy(), a.data.copy()

    def assert_unchanged(self, a, before):
        for got, want in zip(self.arrays(a), before):
            assert np.array_equal(got, want)

    def test_fingerprint_leaves_the_matrix_alone(self):
        from repro.fingerprint import fingerprint

        a = self.unsorted_with_duplicates()
        before = self.arrays(a)
        fp = fingerprint(a, k=2, method="finegrain", seed=0)
        self.assert_unchanged(a, before)
        canonical = a.copy()
        canonical.sum_duplicates()
        assert fp == fingerprint(canonical, k=2, method="finegrain", seed=0)

    def test_decompose_leaves_the_matrix_alone(self):
        from repro.core.api import decompose
        from repro.fingerprint import fingerprint

        a = self.unsorted_with_duplicates()
        before = self.arrays(a)
        res = decompose(a, 2, method="finegrain", seed=0)
        self.assert_unchanged(a, before)
        assert res.fingerprint == fingerprint(a, k=2, method="finegrain", seed=0)
