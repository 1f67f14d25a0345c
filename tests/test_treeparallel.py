"""Tree-parallel recursion, shared worker budget, and supervised-worker cleanup.

The two contracts under test:

1. **Seed-tree determinism** — ``tree_parallel=True`` produces the
   bit-identical partition at any worker count, on any backend, because
   every recursion node's randomness is a pure function of
   ``(root entropy, tree path)`` and never of call order or scheduling.
2. **No leaked shared memory** — the engine's supervised process backend
   leaves no ``/dev/shm`` entry behind on any exit path, including a
   crashing start.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from tests.conftest import random_hypergraph
from tests.golden import check_golden
from repro._util import as_rng
from repro.core.api import decompose
from repro.hypergraph import Hypergraph
from repro.partitioner import (
    PartitionerConfig,
    TreeScheduler,
    WorkerBudget,
    partition_hypergraph,
    partition_multistart,
)
from repro.partitioner import pool
from repro.partitioner.engine import _tree_workers
from repro.partitioner.recursive import partition_recursive
from repro.telemetry import use_recorder


@pytest.fixture(autouse=True)
def _ship_tiny_subtrees(monkeypatch):
    """Even tiny test hypergraphs ship subtrees to workers instead of
    short-circuiting inline."""
    monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", 1)


def _tree_cfg(workers: int, backend: str) -> PartitionerConfig:
    return PartitionerConfig(
        tree_parallel=True, n_workers=workers, start_backend=backend
    )


# ----------------------------------------------------------------------
# seed-tree determinism: bit-identical at any worker count / backend
# ----------------------------------------------------------------------
# "thread" is the deleted backend's legacy spelling, normalised to "auto"
# (process workers on a multi-core host): old configs must keep the bits
SCHEDULES = [(1, "serial"), (2, "thread"), (4, "thread"), (2, "process"), (4, "process")]


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    rng = np.random.default_rng(11)
    a = sp.random(50, 50, density=0.12, random_state=rng, format="lil")
    a.setdiag(rng.uniform(0.5, 1.0, 50))
    return sp.csr_matrix(a)


@pytest.mark.parametrize("k", [3, 8, 16])
@pytest.mark.parametrize(
    "method", ["finegrain", "columnnet", "rownet", "graph", "finegrain-rect"]
)
def test_tree_parallel_bit_identical_across_methods(matrix, method, k):
    """Every decompose() method, every schedule: one partition."""
    ref = None
    for workers, backend in SCHEDULES:
        cfg = _tree_cfg(workers, backend)
        res = decompose(matrix, k, method=method, config=cfg, seed=42)
        if ref is None:
            ref = res
        else:
            assert np.array_equal(res.part, ref.part), (method, k, workers, backend)
            assert res.cutsize == ref.cutsize


@pytest.mark.parametrize("k", [3, 8, 16])
@pytest.mark.parametrize("workers,backend", SCHEDULES[1:])
def test_partition_recursive_tree_matches_serial(k, workers, backend):
    """Direct partition_recursive: parallel == serial, and the cut-net
    splitting invariant (sum of bisection cuts == Eq. 3 cutsize) holds."""
    from repro.hypergraph.partition import cutsize_connectivity

    h = random_hypergraph(as_rng(5), 150, 120, weighted=True)
    serial = partition_hypergraph(h, k, _tree_cfg(1, "serial"), seed=9)
    par = partition_hypergraph(h, k, _tree_cfg(workers, backend), seed=9)
    assert np.array_equal(serial.part, par.part)
    assert sum(par.bisection_cuts) == cutsize_connectivity(h, par.part)


def test_tree_parallel_respects_fixed_vertices():
    h = random_hypergraph(as_rng(1), 120, 90)
    fixed = np.full(120, -1, dtype=np.int64)
    fixed[:6] = [0, 1, 2, 3, 0, 1]
    h = Hypergraph(
        h.num_vertices, h.xpins, h.pins,
        vertex_weights=h.vertex_weights, net_costs=h.net_costs, fixed=fixed,
    )
    serial = partition_hypergraph(h, 4, _tree_cfg(1, "serial"), seed=3)
    par = partition_hypergraph(h, 4, _tree_cfg(4, "process"), seed=3)
    assert np.array_equal(serial.part, par.part)
    assert np.array_equal(par.part[:6], fixed[:6])


def test_tree_mode_spawn_knobs_never_change_bits(monkeypatch):
    """The spawn frontier and size floor are pure scheduling policy."""
    h = random_hypergraph(as_rng(8), 100, 80)
    ref = partition_hypergraph(h, 8, _tree_cfg(1, "serial"), seed=1)
    for depth, minv in [(0, 1), (1, 50), (3, 1), (2, 10**9)]:
        monkeypatch.setattr(pool, "_SPAWN_DEPTH", depth)
        monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", minv)
        res = partition_hypergraph(h, 8, _tree_cfg(3, "process"), seed=1)
        assert np.array_equal(res.part, ref.part), (depth, minv)


def test_tree_mode_differs_from_legacy_but_is_self_consistent():
    """tree_parallel=True is its own deterministic universe — repeat runs
    agree; the legacy sequential stream is a different (still pinned)
    universe."""
    h = random_hypergraph(as_rng(4), 100, 80)
    a = partition_hypergraph(h, 8, _tree_cfg(1, "serial"), seed=0)
    b = partition_hypergraph(h, 8, _tree_cfg(1, "serial"), seed=0)
    assert np.array_equal(a.part, b.part)
    legacy = partition_hypergraph(h, 8, seed=0)
    # no bit contract between the modes; quality must stay in family
    assert abs(legacy.cutsize - a.cutsize) <= max(10, legacy.cutsize)


def test_tree_parallel_with_engine_shares_budget():
    """n_starts > 1 + tree_parallel: same bits on serial and process
    engines, and the budget split never exceeds n_workers."""
    h = random_hypergraph(as_rng(6), 150, 130)
    cfg_serial = _tree_cfg(1, "serial").with_(n_starts=3)
    cfg_proc = _tree_cfg(4, "process").with_(n_starts=3)
    rs = partition_multistart(h, 4, cfg_serial, seed=5)
    rp = partition_multistart(h, 4, cfg_proc, seed=5)
    assert np.array_equal(rs.part, rp.part)
    assert rs.cutsize == rp.cutsize


def test_tree_workers_budget_math():
    base = PartitionerConfig(tree_parallel=True)
    # serial engine: the whole budget goes to the tree
    assert _tree_workers(base.with_(n_workers=4, n_starts=3), "serial") == 4
    # parallel engine: starts occupy min(workers, starts) slots
    assert _tree_workers(base.with_(n_workers=4, n_starts=2), "process") == 2
    assert _tree_workers(base.with_(n_workers=4, n_starts=4), "process") == 1
    assert _tree_workers(base.with_(n_workers=8, n_starts=2), "process") == 4
    assert _tree_workers(base.with_(n_workers=2, n_starts=8), "process") == 1
    # legacy recursion never fans out
    assert _tree_workers(
        PartitionerConfig(tree_parallel=False, n_workers=8, n_starts=2), "process"
    ) == 1


# ----------------------------------------------------------------------
# golden pinning: the seed-tree universe must never drift
# ----------------------------------------------------------------------
TREE_GOLDEN_CASES = [
    (nv, nn, hseed, k, seed)
    for nv, nn, hseed in [(60, 50, 0), (200, 160, 2)]
    for k in (2, 8)
    for seed in (0,)
]


@pytest.mark.parametrize("nv,nn,hseed,k,seed", TREE_GOLDEN_CASES)
# (2, "thread") replays the goldens through the legacy spelling of "auto"
@pytest.mark.parametrize("workers,backend", [(1, "serial"), (2, "thread"), (4, "process")])
def test_golden_tree_partitions(nv, nn, hseed, k, seed, workers, backend):
    h = random_hypergraph(as_rng(hseed), nv, nn)
    res = partition_hypergraph(h, k, _tree_cfg(workers, backend), seed=seed)
    check_golden(f"tree-{nv}x{nn}-s{hseed}-k{k}-seed{seed}", res.part, res.cutsize)


# ----------------------------------------------------------------------
# scheduler / budget units
# ----------------------------------------------------------------------
def test_worker_budget_slots():
    b = WorkerBudget(2)
    assert b.try_acquire() and b.try_acquire()
    assert not b.try_acquire()
    b.release()
    assert b.try_acquire()
    assert not WorkerBudget(0).try_acquire()


def test_scheduler_declines_below_frontier_and_size(monkeypatch):
    monkeypatch.setattr(pool, "_SPAWN_DEPTH", 2)
    monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", 100)
    cfg = PartitionerConfig(tree_parallel=True, n_workers=4, start_backend="process")
    with TreeScheduler(cfg) as sched:
        assert sched.offer(2, 10**6, lambda: None) is None  # too deep
        assert sched.offer(0, 99, lambda: None) is None  # too small
        fut = sched.offer(0, 100, int, "7")
        assert fut is not None and fut.result() == 7


def test_scheduler_serial_backend_is_inert():
    cfg = PartitionerConfig(tree_parallel=True, n_workers=4, start_backend="serial")
    with TreeScheduler(cfg) as sched:
        assert sched.offer(0, 10**6, int, "1") is None


def test_scheduler_survives_task_failure(monkeypatch):
    """A crashing subtree task costs wall clock, not the partition."""
    h = random_hypergraph(as_rng(2), 150, 120)
    ref = partition_hypergraph(h, 8, _tree_cfg(1, "serial"), seed=4)
    # the plan reaches the pool's worker processes through the environment
    monkeypatch.setenv("REPRO_FAULTS", "tree.task:crash@all")
    with use_recorder() as rec:
        res = partition_hypergraph(h, 8, _tree_cfg(3, "process"), seed=4)
    failures = rec.counter_totals().get("tree.task_failures", 0)
    assert failures > 0, "no subtree was ever offered to the pool"
    assert np.array_equal(res.part, ref.part)


# ----------------------------------------------------------------------
# the supervised process backend leaves no shared memory behind
# ----------------------------------------------------------------------
def _shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _crashing_start(h, k, cfg, seed):
    """Stands in for ``engine._run_start``; forked children inherit it."""
    raise ValueError("injected start crash")


def test_engine_unlinks_shm_when_a_start_crashes(monkeypatch):
    """Every start's child raises; each start is recomputed inline and no
    shared memory or child process outlives the engine."""
    import multiprocessing as mp

    import repro.partitioner.engine as eng

    h = random_hypergraph(as_rng(1), 150, 120)
    cfg = PartitionerConfig(n_starts=3, n_workers=2, start_backend="process")
    ref = partition_multistart(h, 4, cfg.with_(start_backend="serial"), seed=0)
    before = _shm_segments()
    monkeypatch.setattr(eng, "_run_start", _crashing_start)
    with use_recorder() as rec:
        res = partition_multistart(h, 4, cfg, seed=0)
    assert rec.counter_totals()["engine.start_failures"] == 3
    assert np.array_equal(res.part, ref.part)
    assert not (_shm_segments() - before)
    assert not mp.active_children()


# ----------------------------------------------------------------------
# config / env knobs
# ----------------------------------------------------------------------
def test_env_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_TREE_PARALLEL", "1")
    monkeypatch.setenv("REPRO_N_WORKERS", "3")
    monkeypatch.setenv("REPRO_START_BACKEND", "process")
    cfg = PartitionerConfig()
    assert cfg.tree_parallel and cfg.n_workers == 3
    assert cfg.start_backend == "process"
    # explicit arguments always win over the environment
    cfg = PartitionerConfig(tree_parallel=False, n_workers=1)
    assert not cfg.tree_parallel and cfg.n_workers == 1


def test_decompose_tree_parallel_override(matrix):
    a = decompose(matrix, 4, method="finegrain", seed=0, tree_parallel=True)
    b = decompose(
        matrix, 4, method="finegrain", seed=0,
        config=PartitionerConfig(tree_parallel=True),
    )
    assert np.array_equal(a.part, b.part)
