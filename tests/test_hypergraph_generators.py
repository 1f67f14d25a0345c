"""Tests for the test-suite hypergraph generators."""

import numpy as np
import pytest

from repro.hypergraph.builders import validate_hypergraph
from tests.hypergraph_generators import (
    clique_chain_hypergraph,
    planted_partition_hypergraph,
    random_uniform_hypergraph,
)
from repro.hypergraph.partition import cutsize_connectivity
from repro.partitioner import PartitionerConfig, partition_hypergraph


class TestRandomUniform:
    def test_structure(self):
        h = random_uniform_hypergraph(50, 30, 4, seed=0)
        assert h.num_vertices == 50
        assert h.num_nets == 30
        assert h.num_pins == 120
        validate_hypergraph(h)

    def test_deterministic(self):
        a = random_uniform_hypergraph(40, 20, 3, seed=5)
        b = random_uniform_hypergraph(40, 20, 3, seed=5)
        assert a == b

    def test_weighted(self):
        h = random_uniform_hypergraph(30, 10, 3, weighted=True, seed=1)
        assert h.vertex_weights.max() > 1 or h.net_costs.max() > 1

    def test_net_size_too_large(self):
        with pytest.raises(ValueError):
            random_uniform_hypergraph(3, 1, 5)

    def test_zero_nets(self):
        h = random_uniform_hypergraph(5, 0, 2, seed=0)
        assert h.num_nets == 0


class TestPlantedPartition:
    def test_planted_cutsize_exact(self):
        h, planted, cut = planted_partition_hypergraph(4, 20, 10, 4, 6, seed=0)
        assert cutsize_connectivity(h, planted) == cut

    def test_partitioner_finds_planted_quality(self):
        h, planted, cut = planted_partition_hypergraph(4, 25, 15, 5, 5, seed=1)
        # the planted cut is achievable, so the partitioner should land at
        # or very near it; best-of-3 seeds keeps the bound meaningful on
        # an instance this small (single-seed quality is variance-bound,
        # whichever RNG universe — legacy or seed-tree — is active)
        best = min(
            partition_hypergraph(h, 4, seed=s).cutsize for s in range(3)
        )
        assert best <= cut + 3

    def test_single_part(self):
        h, planted, cut = planted_partition_hypergraph(1, 10, 5, 3, 0, seed=2)
        assert cut == 0
        assert set(planted.tolist()) == {0}


class TestCliqueChain:
    def test_optimum_known(self):
        h, opt = clique_chain_hypergraph(8, 6)
        assert opt == 7
        part = np.repeat(np.arange(8), 6)
        assert cutsize_connectivity(h, part) == opt

    def test_partitioner_near_optimal(self):
        h, opt = clique_chain_hypergraph(8, 8)
        res = partition_hypergraph(h, 8, seed=0)
        assert res.cutsize <= opt + 3
        assert res.imbalance <= 0.04
