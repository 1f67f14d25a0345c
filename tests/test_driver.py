"""Tests for the public partitioner API."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.hypergraph import cutsize_connectivity, hypergraph_from_netlists
from repro.partitioner import PartitionerConfig, partition_hypergraph
from tests.conftest import random_hypergraph


class TestPartitionHypergraph:
    def test_result_fields_consistent(self):
        h = random_hypergraph(as_rng(0), 60, 50)
        res = partition_hypergraph(h, 4, seed=0)
        assert res.k == 4
        assert res.cutsize == cutsize_connectivity(h, res.part)
        assert res.cutsize_cutnet <= res.cutsize
        assert res.runtime >= 0
        assert sum(res.bisection_cuts) == res.cutsize

    def test_deterministic_given_seed(self):
        h = random_hypergraph(as_rng(1), 50, 40)
        r1 = partition_hypergraph(h, 4, seed=123)
        r2 = partition_hypergraph(h, 4, seed=123)
        assert np.array_equal(r1.part, r2.part)
        assert r1.cutsize == r2.cutsize

    def test_structured_instance_quality(self):
        # 8 cliques of 8 chained by single links -> K=8 cut should be small
        nets = []
        for b in range(8):
            nets.append(list(range(b * 8, b * 8 + 8)))
            if b < 7:
                nets.append([b * 8 + 7, (b + 1) * 8])
        h = hypergraph_from_netlists(64, nets)
        res = partition_hypergraph(h, 8, seed=0)
        assert res.cutsize <= 10  # ideal 7
        assert res.imbalance <= 0.03 + 1e-9

    def test_kway_refine_helps_or_equal(self):
        h = random_hypergraph(as_rng(3), 80, 70)
        base = partition_hypergraph(
            h, 8, config=PartitionerConfig(kway_refine=False), seed=5
        )
        plus = partition_hypergraph(
            h, 8, config=PartitionerConfig(kway_refine=True), seed=5
        )
        assert plus.cutsize <= base.cutsize

    def test_fixed_from_hypergraph(self):
        nets = [[0, 1, 2], [3, 4, 5], [2, 3]]
        fixed = np.array([0, -1, -1, -1, -1, 1])
        h = hypergraph_from_netlists(6, nets, fixed=fixed)
        res = partition_hypergraph(h, 2, seed=0)
        assert res.part[0] == 0 and res.part[5] == 1

    def test_fixed_out_of_range_rejected(self):
        h = hypergraph_from_netlists(3, [[0, 1, 2]], fixed=[5, -1, -1])
        with pytest.raises(ValueError, match="fixed part id"):
            partition_hypergraph(h, 2, seed=0)

    def test_invalid_k(self):
        h = hypergraph_from_netlists(3, [[0, 1, 2]])
        with pytest.raises(ValueError):
            partition_hypergraph(h, 0)

    def test_zero_weight_vertices_ok(self):
        h = hypergraph_from_netlists(
            6, [[0, 1, 2], [3, 4, 5]], vertex_weights=[1, 1, 0, 0, 1, 1]
        )
        res = partition_hypergraph(h, 2, seed=0)
        assert res.imbalance <= 0.5  # 4 units over 2 parts

    @pytest.mark.parametrize("matching", ["hcm", "hcc", "none"])
    def test_matching_schemes_all_work(self, matching):
        h = random_hypergraph(as_rng(4), 50, 40)
        cfg = PartitionerConfig(matching=matching)
        res = partition_hypergraph(h, 4, config=cfg, seed=1)
        assert res.cutsize == cutsize_connectivity(h, res.part)

    def test_summary_string(self):
        h = random_hypergraph(as_rng(5), 20, 15)
        s = partition_hypergraph(h, 2, seed=0).summary()
        assert "K=2" in s and "cutsize=" in s
