"""Hypothesis property tests: model invariants on random inputs.

Each property pins a contract the rest of the suite only samples:

* the §3 consistency condition holds for every fine-grain model built
  with ``consistency=True``, whatever the sparsity pattern;
* the PaToH and hMeTiS writers/readers are exact inverses, including
  empty nets, zero weights and weighted variants;
* the vectorized partition metrics agree with the obviously-correct
  pure-Python oracles of :mod:`repro.verify.oracles` on arbitrary
  (hypergraph, partition) pairs.
"""

from __future__ import annotations

import io as _io

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import hypergraphs, partitions_of, sparse_square_matrices
from repro.core.finegrain import build_finegrain_model
from repro.hypergraph.io import read_hmetis, read_patoh, write_hmetis, write_patoh
from repro.hypergraph.partition import (
    compute_part_weights,
    cutsize_connectivity,
    cutsize_cutnet,
    net_connectivities,
    net_connectivity_sets,
)
from repro.verify.oracles import (
    oracle_connectivity_sets,
    oracle_consistency,
    oracle_cutsize_connectivity,
    oracle_cutsize_cutnet,
    oracle_net_connectivities,
    oracle_part_weights,
)


# ----------------------------------------------------------------------
# consistency condition (§3) on arbitrary sparse matrices
# ----------------------------------------------------------------------
@given(a=sparse_square_matrices(max_n=14))
def test_finegrain_consistency_condition_always_holds(a):
    """Every diagonal — real or dummy — is pinned in both of its nets."""
    model = build_finegrain_model(a, consistency=True)
    assert oracle_consistency(model) == []


@given(a=sparse_square_matrices(max_n=12), data=st.data())
def test_finegrain_decode_agrees_on_both_nets(a, data):
    """With consistency pins, the x- and y-vector decode coincide by
    construction for *any* partition of the vertices."""
    model = build_finegrain_model(a, consistency=True)
    nv = model.hypergraph.num_vertices
    part = data.draw(partitions_of(nv, 3))
    assert oracle_consistency(model, part) == []


# ----------------------------------------------------------------------
# file-format round-trips (empty nets included)
# ----------------------------------------------------------------------
def _assert_same_hypergraph(h2, h):
    assert h2.num_vertices == h.num_vertices
    assert h2.num_nets == h.num_nets
    assert np.array_equal(h2.xpins, h.xpins)
    assert np.array_equal(h2.pins, h.pins)
    assert np.array_equal(h2.vertex_weights, h.vertex_weights)
    assert np.array_equal(h2.net_costs, h.net_costs)


@given(h=hypergraphs(weighted=False, min_net_size=0))
def test_patoh_roundtrip_unweighted(h):
    buf = _io.StringIO()
    write_patoh(h, buf)
    buf.seek(0)
    _assert_same_hypergraph(read_patoh(buf), h)


@given(h=hypergraphs(weighted=True, min_net_size=0), base=st.sampled_from([0, 1]))
def test_patoh_roundtrip_weighted(h, base):
    buf = _io.StringIO()
    write_patoh(h, buf, base=base)
    buf.seek(0)
    _assert_same_hypergraph(read_patoh(buf), h)


@given(h=hypergraphs(weighted=False, min_net_size=0))
def test_hmetis_roundtrip_unweighted(h):
    buf = _io.StringIO()
    write_hmetis(h, buf)
    buf.seek(0)
    _assert_same_hypergraph(read_hmetis(buf), h)


@given(h=hypergraphs(weighted=True, min_net_size=0))
def test_hmetis_roundtrip_weighted(h):
    buf = _io.StringIO()
    write_hmetis(h, buf)
    buf.seek(0)
    _assert_same_hypergraph(read_hmetis(buf), h)


# ----------------------------------------------------------------------
# vectorized metrics == pure-Python oracles
# ----------------------------------------------------------------------
@given(h=hypergraphs(weighted=True), data=st.data())
def test_vectorized_metrics_match_oracles(h, data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    part = data.draw(partitions_of(h.num_vertices, k))
    assert list(compute_part_weights(h, part, k)) == oracle_part_weights(h, part, k)
    vec_sets = [set(s) for s in net_connectivity_sets(h, part)]
    assert vec_sets == oracle_connectivity_sets(h, part)
    assert list(net_connectivities(h, part)) == oracle_net_connectivities(h, part)
    assert cutsize_connectivity(h, part) == oracle_cutsize_connectivity(h, part)
    assert cutsize_cutnet(h, part) == oracle_cutsize_cutnet(h, part)


# ----------------------------------------------------------------------
# the exact solver is a hard quality floor under the multilevel heuristic
# ----------------------------------------------------------------------
def _bisection_key(h, part, epsilon: float) -> tuple[int, int]:
    """The lexicographic (excess, cut) key the whole partitioner ranks by,
    measured against the pipeline's own k=2 weight bounds."""
    from repro.exact import bisection_bounds

    _, maxw = bisection_bounds(h, epsilon)
    w = compute_part_weights(h, part, 2)
    excess = int(max(0, int(w[0]) - maxw[0]) + max(0, int(w[1]) - maxw[1]))
    return (excess, int(cutsize_connectivity(h, part)))


@given(h=hypergraphs(max_vertices=12, max_nets=10), seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_multilevel_never_beats_exact(h, seed):
    """On any small hypergraph the multilevel cut is >= the certified
    optimum — in the lexicographic (excess, cut) order, so an infeasible
    heuristic result cannot masquerade as a win via a smaller raw cut."""
    from repro.exact import exact_bisection
    from repro.partitioner import PartitionerConfig, partition_hypergraph

    exact = exact_bisection(h, 0.1)
    assert exact.proven
    res = partition_hypergraph(h, 2, PartitionerConfig(epsilon=0.1), seed=seed)
    assert _bisection_key(h, res.part, 0.1) >= (exact.excess, exact.cutsize)


@given(h=hypergraphs(max_vertices=12, max_nets=10), seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_exact_initial_lands_on_the_optimum(h, seed):
    """With initial_method="exact" unbudgeted, instances small enough to
    skip coarsening must come out of the whole pipeline exactly optimal:
    the initial bisection is certified and no later stage may worsen it."""
    from repro.exact import exact_bisection
    from repro.partitioner import PartitionerConfig, partition_hypergraph

    exact = exact_bisection(h, 0.1)
    assert exact.proven
    cfg = PartitionerConfig(
        epsilon=0.1,
        initial_method="exact",
        exact_initial_vertices=64,
        exact_initial_nodes=50_000_000,
    )
    res = partition_hypergraph(h, 2, cfg, seed=seed)
    assert _bisection_key(h, res.part, 0.1) == (exact.excess, exact.cutsize)


def test_known_optimal_fixtures_floor_the_heuristic():
    """The committed known-optimal fixtures, replayed as properties under
    the bounded "repro" profile: the heuristic may match but never beat
    any certified optimum, and exact-initial always lands on it."""
    from repro.partitioner import PartitionerConfig, partition_hypergraph
    from tests.optimal_fixtures import EPSILON, OPTIMA, fixture_hypergraphs

    cfg = PartitionerConfig(epsilon=EPSILON)
    for key, _mname, _model, h in fixture_hypergraphs():
        gold = OPTIMA[key]
        res = partition_hypergraph(h, 2, cfg, seed=0)
        assert _bisection_key(h, res.part, EPSILON) >= (
            gold["excess"],
            gold["cut"],
        ), key
