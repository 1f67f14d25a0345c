"""Tests for recursive bisection with cut-net splitting (invariant 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import as_rng
from repro.hypergraph import cutsize_connectivity, hypergraph_from_netlists
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.recursive import (
    bisection_epsilon,
    extract_side,
    partition_recursive,
)
from tests.conftest import hypergraphs, random_hypergraph


class TestBisectionEpsilon:
    def test_compounds_to_eps(self):
        for k in (2, 4, 8, 16, 64):
            eps_b = bisection_epsilon(0.03, k)
            levels = int(np.ceil(np.log2(k)))
            assert (1 + eps_b) ** levels == pytest.approx(1.03)

    def test_k2_is_identity(self):
        assert bisection_epsilon(0.1, 2) == pytest.approx(0.1)


class TestExtractSide:
    def test_basic_split(self):
        h = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        part01 = np.array([0, 0, 1, 1])
        sub0, ids0, _ = extract_side(h, part01, 0)
        sub1, ids1, _ = extract_side(h, part01, 1)
        assert ids0.tolist() == [0, 1]
        assert ids1.tolist() == [2, 3]
        # side 0 keeps net [0,1]; the cut net [1,2,3] leaves only pin 1 -> dropped
        assert sub0.num_nets == 1
        # side 1 keeps the cut net's pins {2,3} and net [2,3]
        assert sub1.num_nets == 2

    def test_cut_net_splitting_preserves_pins(self):
        h = hypergraph_from_netlists(6, [[0, 1, 2, 3, 4, 5]], net_costs=[7])
        part01 = np.array([0, 0, 0, 1, 1, 1])
        sub0, _, _ = extract_side(h, part01, 0)
        sub1, _, _ = extract_side(h, part01, 1)
        assert sub0.num_nets == 1 and sub0.pins_of(0).tolist() == [0, 1, 2]
        assert sub1.num_nets == 1 and sub1.pins_of(0).tolist() == [0, 1, 2]
        assert sub0.net_costs.tolist() == [7]

    def test_weights_and_fixed_carried(self):
        h = hypergraph_from_netlists(
            4, [[0, 1, 2, 3]], vertex_weights=[1, 2, 3, 4]
        )
        fixed = np.array([0, -1, 2, -1])
        part01 = np.array([0, 1, 0, 1])
        sub0, ids0, f0 = extract_side(h, part01, 0, fixed)
        assert sub0.vertex_weights.tolist() == [1, 3]
        assert f0.tolist() == [0, 2]


class TestPartitionRecursive:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_valid_partition_any_k(self, k):
        h = random_hypergraph(as_rng(20 + k), 60, 45)
        cfg = PartitionerConfig()
        part, cuts = partition_recursive(h, k, cfg, as_rng(k))
        assert part.min() >= 0 and part.max() < k
        if k > 1:
            assert len(np.unique(part)) == k

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 16])
    def test_invariant_sum_of_cuts_is_cutsize(self, k):
        """The core cut-net-splitting theorem: bisection cuts sum to Eq. 3."""
        h = random_hypergraph(as_rng(k), 80, 70, weighted=False)
        cfg = PartitionerConfig()
        part, cuts = partition_recursive(h, k, cfg, as_rng(k + 1))
        assert sum(cuts) == cutsize_connectivity(h, part)

    def test_invariant_with_costs(self):
        h = random_hypergraph(as_rng(33), 70, 55, weighted=True)
        cfg = PartitionerConfig()
        part, cuts = partition_recursive(h, 4, cfg, as_rng(34))
        assert sum(cuts) == cutsize_connectivity(h, part)

    @given(hypergraphs(max_vertices=10, max_nets=8), st.integers(2, 4),
           st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_sum_of_cuts(self, h, k, seed):
        cfg = PartitionerConfig(n_initial_starts=2, fm_passes=1)
        part, cuts = partition_recursive(h, k, cfg, as_rng(seed))
        assert sum(cuts) == cutsize_connectivity(h, part)

    def test_balance_within_epsilon(self):
        h = hypergraph_from_netlists(64, [[i, (i + 1) % 64] for i in range(64)])
        cfg = PartitionerConfig(epsilon=0.03)
        for k in (2, 4, 8):
            part, _ = partition_recursive(h, k, cfg, as_rng(k))
            w = np.bincount(part, minlength=k)
            assert w.max() <= np.ceil(64 / k * 1.04)

    def test_fixed_respected(self):
        h = random_hypergraph(as_rng(40), 40, 30)
        fixed = np.full(40, -1, dtype=np.int64)
        fixed[0], fixed[1], fixed[2] = 0, 2, 3
        cfg = PartitionerConfig()
        part, _ = partition_recursive(h, 4, cfg, as_rng(41), fixed=fixed)
        assert part[0] == 0 and part[1] == 2 and part[2] == 3

    def test_k1_trivial(self):
        h = random_hypergraph(as_rng(42), 10, 5)
        part, cuts = partition_recursive(h, 1, PartitionerConfig(), as_rng(0))
        assert part.tolist() == [0] * 10
        assert cuts == []

    def test_invalid_k(self):
        h = random_hypergraph(as_rng(43), 5, 3)
        with pytest.raises(ValueError):
            partition_recursive(h, 0, PartitionerConfig(), as_rng(0))

    def test_both_streams_walk_one_recursion(self):
        """Legacy and seed-tree runs open their ``bisection`` spans in the
        same depth-first ``path=`` order: one walk, two RNG sources."""
        from repro.telemetry import use_recorder

        h = random_hypergraph(as_rng(44), 90, 70)

        def paths(tree_parallel: bool) -> list[str]:
            cfg = PartitionerConfig(tree_parallel=tree_parallel)
            with use_recorder() as rec:
                partition_recursive(h, 6, cfg, as_rng(45))
            return [
                s.attrs["path"]
                for root in rec.roots
                for s, _ in root.walk()
                if s.name == "bisection"
            ]

        assert paths(False) == paths(True) == ["r", "r0", "r00", "r1", "r10"]
