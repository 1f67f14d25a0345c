"""Unit and property tests for the hypergraph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.hypergraph import (
    Hypergraph,
    hypergraph_from_csr,
    hypergraph_from_netlists,
    validate_hypergraph,
)
from tests.conftest import hypergraphs


class TestConstruction:
    def test_basic_counts(self, tiny_hypergraph):
        h = tiny_hypergraph
        assert h.num_vertices == 4
        assert h.num_nets == 3
        assert h.num_pins == 7

    def test_pins_of(self, tiny_hypergraph):
        assert tiny_hypergraph.pins_of(1).tolist() == [1, 2, 3]

    def test_nets_of(self, tiny_hypergraph):
        assert sorted(tiny_hypergraph.nets_of(1).tolist()) == [0, 1]
        assert sorted(tiny_hypergraph.nets_of(3).tolist()) == [1, 2]

    def test_net_sizes_and_degrees(self, tiny_hypergraph):
        assert tiny_hypergraph.net_sizes().tolist() == [2, 3, 2]
        assert tiny_hypergraph.vertex_degrees().tolist() == [1, 2, 2, 2]
        assert tiny_hypergraph.net_size(1) == 3
        assert tiny_hypergraph.vertex_degree(0) == 1

    def test_default_weights_and_costs(self, tiny_hypergraph):
        assert tiny_hypergraph.vertex_weights.tolist() == [1, 1, 1, 1]
        assert tiny_hypergraph.net_costs.tolist() == [1, 1, 1]
        assert tiny_hypergraph.total_vertex_weight() == 4

    def test_custom_weights(self):
        h = hypergraph_from_netlists(
            3, [[0, 1]], vertex_weights=[2, 0, 5], net_costs=[7]
        )
        assert h.total_vertex_weight() == 7
        assert h.net_costs.tolist() == [7]

    def test_iter_nets(self, tiny_hypergraph):
        assert [n.tolist() for n in tiny_hypergraph.iter_nets()] == [
            [0, 1], [1, 2, 3], [2, 3],
        ]

    def test_empty_hypergraph(self):
        h = hypergraph_from_netlists(0, [])
        assert h.num_vertices == 0
        assert h.num_nets == 0
        assert h.num_pins == 0

    def test_vertices_without_nets(self):
        h = hypergraph_from_netlists(5, [[0, 1]])
        assert h.vertex_degree(4) == 0

    def test_equality(self, tiny_hypergraph):
        other = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        assert tiny_hypergraph == other
        different = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [1, 3]])
        assert tiny_hypergraph != different

    def test_fixed_carried(self):
        h = hypergraph_from_netlists(3, [[0, 1, 2]], fixed=[-1, 0, 1])
        assert h.fixed.tolist() == [-1, 0, 1]


class TestValidation:
    def test_pin_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            hypergraph_from_netlists(2, [[0, 5]])

    def test_duplicate_pins_rejected(self):
        with pytest.raises(ValueError, match="duplicate pins"):
            hypergraph_from_netlists(3, [[0, 1, 1]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            hypergraph_from_netlists(2, [[0, 1]], vertex_weights=[1, -1])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            hypergraph_from_netlists(2, [[0, 1]], net_costs=[-2])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hypergraph_from_netlists(2, [[0, 1]], vertex_weights=[1])

    def test_bad_xpins(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [0, 2, 1], [0, 1])

    def test_xpins_must_match_pins(self):
        with pytest.raises(ValueError, match="xpins"):
            Hypergraph(2, [0, 3], [0, 1])


class TestDualConsistency:
    def test_transpose_matches(self, tiny_hypergraph):
        validate_hypergraph(tiny_hypergraph)

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_property_dual_consistency(self, h):
        validate_hypergraph(h)

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_property_pin_count_symmetry(self, h):
        assert int(h.net_sizes().sum()) == int(h.vertex_degrees().sum()) == h.num_pins


class TestMaxIncidentCost:
    @staticmethod
    def _add_at(h):
        tot = np.zeros(h.num_vertices, dtype=np.int64)
        np.add.at(tot, h.pins, h.net_costs[h.net_of_pin()])
        return max(int(tot.max()), 1) if h.num_pins else 1

    @given(hypergraphs(weighted=True, min_net_size=0))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_add_at(self, h):
        assert h.max_incident_cost() == self._add_at(h)

    def test_large_costs_exact(self):
        # sums near 2**52 stay exact in the float accumulation
        costs = [2**50, 2**50 + 1, 3, 2**51 - 7]
        h = hypergraph_from_netlists(
            3, [[0, 1], [1, 2], [0, 2], [1]], net_costs=costs
        )
        assert h.max_incident_cost() == self._add_at(h) == 2**52 - 6

    def test_zero_costs_floor_at_one(self):
        h = hypergraph_from_netlists(3, [[0, 1], [1, 2]], net_costs=[0, 0])
        assert h.max_incident_cost() == 1
        assert hypergraph_from_netlists(2, [[]]).max_incident_cost() == 1


class TestCsrConstructor:
    def test_matches_netlists(self, tiny_hypergraph):
        h2 = hypergraph_from_csr(
            4, tiny_hypergraph.xpins, tiny_hypergraph.pins
        )
        assert h2 == tiny_hypergraph
