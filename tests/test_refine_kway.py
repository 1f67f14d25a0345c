"""Tests for K-way partition refinement and the 1D-seeded fine-grain mode."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.core.api import decompose_1d_columnnet, decompose_2d_finegrain
from repro.hypergraph import cutsize_connectivity, hypergraph_from_netlists, imbalance
from repro.matrix import load_collection_matrix
from repro.partitioner import PartitionerConfig
from repro.partitioner.refine_kway import pairwise_refine, refine_partition
from repro.spmv import communication_stats
from tests.conftest import random_hypergraph
from tests.hypergraph_generators import planted_partition_hypergraph


class TestRefinePartition:
    def test_never_worse(self):
        cfg = PartitionerConfig(epsilon=0.2)
        for seed in range(6):
            h = random_hypergraph(as_rng(seed), 60, 50)
            part = as_rng(seed + 100).integers(0, 4, size=60)
            before = cutsize_connectivity(h, part)
            new = refine_partition(h, part, 4, config=cfg, seed=seed)
            assert cutsize_connectivity(h, new) <= before

    def test_repairs_scrambled_planted_partition(self):
        h, planted, cut = planted_partition_hypergraph(4, 20, 12, 4, 4, seed=0)
        scrambled = planted.copy()
        rng = as_rng(1)
        swap = rng.choice(len(scrambled), size=8, replace=False)
        scrambled[swap] = rng.integers(0, 4, size=8)
        cfg = PartitionerConfig(epsilon=0.25)
        new = refine_partition(h, scrambled, 4, config=cfg, seed=2, sweeps=4)
        assert cutsize_connectivity(h, new) <= cut + 4

    def test_k1_noop(self):
        h = random_hypergraph(as_rng(5), 10, 8)
        part = np.zeros(10, dtype=np.int64)
        assert np.array_equal(refine_partition(h, part, 1, seed=0), part)

    def test_respects_fixed(self):
        nets = [[0, 1, 2], [3, 4, 5], [2, 3]]
        fixed = np.array([0, -1, -1, -1, -1, 1])
        h = hypergraph_from_netlists(6, nets, fixed=fixed)
        part = np.array([0, 0, 1, 1, 1, 1])
        cfg = PartitionerConfig(epsilon=0.5)
        new = refine_partition(h, part, 2, config=cfg, seed=0)
        assert new[0] == 0 and new[5] == 1


class TestPairwiseRefine:
    def test_balance_bound_respected(self):
        h = random_hypergraph(as_rng(10), 40, 30)
        part = as_rng(11).integers(0, 4, size=40)
        cfg = PartitionerConfig(epsilon=0.25)
        new = pairwise_refine(h, part, 4, cfg, as_rng(12))
        assert imbalance(h, new, 4) <= 0.30  # eps plus integer slack

    def test_global_delta_matches(self):
        """A pairwise sweep's improvement shows up 1:1 in the global Eq. 3."""
        for seed in range(5):
            h = random_hypergraph(as_rng(seed + 20), 50, 45)
            part = as_rng(seed + 40).integers(0, 3, size=50)
            cfg = PartitionerConfig(epsilon=0.5)
            new = pairwise_refine(h, part, 3, cfg, as_rng(seed))
            assert cutsize_connectivity(h, new) <= cutsize_connectivity(h, part)


class TestSeeded2D:
    @pytest.mark.slow
    def test_seeded_never_loses_to_1d(self):
        """seed_1d guarantees 2D volume <= 1D volume on the same seed."""
        a = load_collection_matrix("vibrobox", scale=0.05, seed=0)
        _, i1 = decompose_1d_columnnet(a, 8, seed=0)
        dec, i2 = decompose_2d_finegrain(a, 8, seed=0, seed_1d=True)
        stats = communication_stats(dec)
        assert stats.total_volume == i2.cutsize
        assert i2.cutsize <= i1.cutsize

    def test_seeded_valid_on_small_matrix(self, small_sparse_matrix):
        dec, info = decompose_2d_finegrain(
            small_sparse_matrix, 4, seed=0, seed_1d=True
        )
        assert dec.is_symmetric()
        stats = communication_stats(dec)
        assert stats.total_volume == info.cutsize
