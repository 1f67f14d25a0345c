"""Multi-start engine, unified decompose() API, and determinism goldens.

The golden partitions in ``tests/data/golden_parts.json`` were recorded
before the vectorized kernels and the engine landed; replaying them pins
the bit-identity contract (``n_starts=1`` at a fixed seed must reproduce
the pre-vectorization partitions exactly).  Golden loading/regeneration
lives in :mod:`tests.golden` (``REPRO_REGEN_GOLDENS=1`` re-records).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import random_hypergraph
from tests.golden import check_golden
from repro._util import as_rng
from repro.core.api import (
    decompose,
    decompose_1d_columnnet,
    decompose_2d_finegrain,
)
from repro.matrix.collection import load_collection_matrix
from repro.partitioner import (
    PartitionerConfig,
    StartStat,
    partition_hypergraph,
    partition_multistart,
)
from repro.spmv import communication_stats

# ----------------------------------------------------------------------
# determinism goldens: n_starts=1 must stay bit-identical to pre-PR
# ----------------------------------------------------------------------
HG_CASES = [
    (nv, nn, hseed, k, seed)
    for nv, nn, hseed in [(60, 50, 0), (120, 90, 1), (200, 160, 2)]
    for k in (2, 4, 8)
    for seed in (0, 123)
]


# the goldens pin the LEGACY sequential stream, so the recursion mode is
# forced off explicitly — these must replay bit-for-bit even when the
# suite runs under REPRO_TREE_PARALLEL=1 (tree mode has its own goldens
# in tests/test_treeparallel.py)
_LEGACY = PartitionerConfig(tree_parallel=False)


@pytest.mark.parametrize("nv,nn,hseed,k,seed", HG_CASES)
def test_golden_hypergraph_partitions(nv, nn, hseed, k, seed):
    h = random_hypergraph(as_rng(hseed), nv, nn)
    res = partition_hypergraph(h, k, config=_LEGACY, seed=seed)
    check_golden(f"hg-{nv}x{nn}-s{hseed}-k{k}-seed{seed}", res.part, res.cutsize)


@pytest.mark.parametrize(
    "label,cfg",
    [
        ("hcm", PartitionerConfig(matching="hcm", tree_parallel=False)),
        ("none", PartitionerConfig(matching="none", tree_parallel=False)),
        ("kway", PartitionerConfig(kway_refine=True, tree_parallel=False)),
    ],
)
def test_golden_config_variants(label, cfg):
    h = random_hypergraph(as_rng(3), 150, 120, weighted=True)
    res = partition_hypergraph(h, 4, config=cfg, seed=7)
    check_golden(f"hg-150x120-{label}-k4-seed7", res.part, res.cutsize)


MATRIX_METHODS = {
    "finegrain": "finegrain",
    "rect": "finegrain-rect",
    "columnnet": "columnnet",
    "rownet": "rownet",
    "graph": "graph",
}


@pytest.mark.parametrize("name", ["sherman3", "bcspwr10"])
@pytest.mark.parametrize("label", sorted(MATRIX_METHODS))
def test_golden_matrix_decompositions(name, label):
    """Every decompose() method replays its pre-PR partition bit for bit."""
    a = load_collection_matrix(name, scale=0.25)
    res = decompose(a, 8, method=MATRIX_METHODS[label], config=_LEGACY, seed=0)
    check_golden(f"{name}-{label}-k8-seed0", res.part, res.cutsize)


# ----------------------------------------------------------------------
# multi-start engine
# ----------------------------------------------------------------------
def test_n_starts_1_is_bit_identical_passthrough():
    h = random_hypergraph(as_rng(2), 200, 160)
    direct = partition_hypergraph(h, 4, seed=9)
    engine = partition_multistart(h, 4, PartitionerConfig(n_starts=1), seed=9)
    assert engine.cutsize == direct.cutsize
    assert np.array_equal(engine.part, direct.part)
    assert engine.start_stats == []


@pytest.mark.parametrize("hseed,nv,nn", [(0, 60, 50), (1, 120, 90), (2, 200, 160)])
def test_multistart_never_worse_than_single(hseed, nv, nn):
    """Start 0 replays the single-start stream, so best-of-N <= single."""
    h = random_hypergraph(as_rng(hseed), nv, nn)
    single = partition_hypergraph(h, 4, seed=hseed)
    multi = partition_multistart(h, 4, PartitionerConfig(n_starts=4), seed=hseed)
    assert multi.start_stats[0].cutsize == single.cutsize
    assert multi.start_stats[0].seed == -1
    assert multi.cutsize <= single.cutsize
    assert multi.cutsize == min(s.cutsize for s in multi.start_stats)
    assert len(multi.start_stats) == 4
    assert all(isinstance(s, StartStat) for s in multi.start_stats)


def test_multistart_deterministic_repeat():
    h = random_hypergraph(as_rng(1), 120, 90)
    cfg = PartitionerConfig(n_starts=3)
    a = partition_multistart(h, 4, cfg, seed=5)
    b = partition_multistart(h, 4, cfg, seed=5)
    assert a.cutsize == b.cutsize
    assert np.array_equal(a.part, b.part)
    assert [s.seed for s in a.start_stats] == [s.seed for s in b.start_stats]


# "auto" runs process workers on a multi-core host, serial otherwise:
# either way the serial bits
@pytest.mark.parametrize("backend", ["auto", "process"])
def test_parallel_backends_match_serial(backend):
    h = random_hypergraph(as_rng(2), 200, 160)
    serial = partition_multistart(
        h, 4, PartitionerConfig(n_starts=4, start_backend="serial"), seed=5
    )
    par = partition_multistart(
        h, 4,
        PartitionerConfig(n_starts=4, n_workers=2, start_backend=backend),
        seed=5,
    )
    assert par.cutsize == serial.cutsize
    assert np.array_equal(par.part, serial.part)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_starts": 0},
        {"n_workers": 0},
        {"start_backend": "mpi"},
        {"deadline": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PartitionerConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_runs": 3},
        {"early_stop_cut": 5},
        {"spawn_depth": 2},
        {"spawn_min_vertices": 1},
        {"tree_task_timeout": 1.0},
    ],
)
def test_removed_fields_are_type_errors(kwargs, small_matrix):
    # repeated runs live in the engine only (n_starts); nothing may let
    # wall-clock timing choose which partition comes back, and the tree
    # scheduler's spawn frontier and failure rule are fixed
    with pytest.raises(TypeError):
        PartitionerConfig(**kwargs)
    with pytest.raises(TypeError):
        decompose(small_matrix, 4, **kwargs)


def test_engine_runtime_and_stat_fields():
    h = random_hypergraph(as_rng(0), 60, 50)
    res = partition_multistart(h, 2, PartitionerConfig(n_starts=2), seed=0)
    assert res.runtime > 0
    for s in res.start_stats:
        assert s.runtime >= 0
        assert s.imbalance >= 0
        assert s.start in (0, 1)


# ----------------------------------------------------------------------
# unified decompose() dispatcher
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_matrix():
    import scipy.sparse as sp

    return sp.random(80, 80, density=0.08, format="csr", random_state=7)


@pytest.mark.parametrize(
    "method", ["finegrain", "columnnet", "rownet", "graph", "finegrain-rect"]
)
def test_decompose_round_trips_every_method(small_matrix, method):
    res = decompose(small_matrix, 4, method=method, seed=0)
    assert res.method == method
    assert res.k == 4
    assert res.cutsize >= 0
    assert res.decomposition.k == 4
    assert res.runtime > 0
    stats = communication_stats(res.decomposition)
    if method in ("finegrain", "finegrain-rect"):
        # the paper's theorem: volume == connectivity-1 cutsize, exactly
        assert stats.total_volume == res.cutsize
    assert "method=" in res.summary()


def test_decompose_matches_wrapper(small_matrix):
    dec, info = decompose_2d_finegrain(small_matrix, 4, seed=3)
    res = decompose(small_matrix, 4, method="finegrain", seed=3)
    assert res.cutsize == info.cutsize
    assert np.array_equal(res.part, info.part)
    assert np.array_equal(res.decomposition.nnz_owner, dec.nnz_owner)


def test_decompose_unknown_method(small_matrix):
    with pytest.raises(KeyError, match="unknown method"):
        decompose(small_matrix, 4, method="quantum")


def test_decompose_engine_overrides(small_matrix):
    single = decompose(small_matrix, 4, method="columnnet", seed=1)
    multi = decompose(
        small_matrix, 4, method="columnnet", seed=1, n_starts=3
    )
    assert len(multi.start_stats) == 3
    assert multi.cutsize <= single.cutsize
    assert single.start_stats == []


def test_seed_normalization_int_vs_generator(small_matrix):
    by_int = decompose(small_matrix, 4, method="finegrain", seed=11)
    by_gen = decompose(
        small_matrix, 4, method="finegrain", seed=np.random.default_rng(11)
    )
    assert by_int.cutsize == by_gen.cutsize
    assert np.array_equal(by_int.part, by_gen.part)


# ----------------------------------------------------------------------
# derived-view cache: pickling and read-only safety
# ----------------------------------------------------------------------
def test_hypergraph_pickle_drops_view_cache():
    h = random_hypergraph(as_rng(4), 60, 50)
    h.net_of_pin()  # populate the cache
    h.max_incident_cost()
    h2 = pickle.loads(pickle.dumps(h))
    assert h2._views == {}
    assert np.array_equal(h2.net_of_pin(), h.net_of_pin())
    assert h2.max_incident_cost() == h.max_incident_cost()
    # a partition of the round-tripped hypergraph is identical
    a = partition_hypergraph(h, 2, seed=0)
    b = partition_hypergraph(h2, 2, seed=0)
    assert np.array_equal(a.part, b.part)


def test_view_cache_is_shared_and_stable():
    h = random_hypergraph(as_rng(4), 60, 50)
    before = h.net_of_pin()
    partition_multistart(h, 2, PartitionerConfig(n_starts=2), seed=0)
    after = h.net_of_pin()
    assert before is after  # cache entry survives and is not rebuilt
    assert np.array_equal(after, np.repeat(np.arange(h.num_nets), np.diff(h.xpins)))
