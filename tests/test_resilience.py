"""The resilient execution runtime (:mod:`repro.partitioner.resilience`).

Every recovery path is driven deterministically through the fault-injection
sites (``engine.start``, ``worker.heartbeat``, ``tree.task``,
``checkpoint.write``) or by killing real worker processes, and every
recovered run is asserted bit-identical to its failure-free counterpart —
resilience must never move the bits.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.partitioner import PartitionerConfig, partition_hypergraph, partition_multistart
from repro.partitioner import resilience
from repro.partitioner.resilience import (
    CheckpointStore,
    Deadline,
    backoff_delay,
    sweep_fingerprint,
)
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.verify.faults import FaultInjected, inject

from .conftest import random_hypergraph


@pytest.fixture
def medium_hypergraph():
    """Big enough that a start takes measurable time on every backend."""
    return random_hypergraph(np.random.default_rng(11), nv=120, nn=400)


@pytest.fixture
def engine_cfg():
    return PartitionerConfig(n_starts=4, backoff_base=0.001, backoff_cap=0.01)


@pytest.fixture
def serial_cfg(engine_cfg):
    """In-process starts: an ``inject`` plan counts every start's hits in
    one process, even when the suite runs under REPRO_START_BACKEND=process."""
    return engine_cfg.with_(start_backend="serial")


def run(h, cfg, seed=0, k=2):
    rec = TelemetryRecorder()
    with use_recorder(rec):
        res = partition_multistart(h, k, cfg, seed=seed)
    return res, rec.counter_totals()


# ----------------------------------------------------------------------
# backoff policy
# ----------------------------------------------------------------------
class TestBackoff:
    def test_grows_exponentially_and_caps(self):
        cfg = PartitionerConfig(backoff_base=0.1, backoff_cap=0.5)
        delays = [backoff_delay(cfg, a, salt=1) for a in range(8)]
        # jitter is in [0.5, 1.0] of the raw delay, so the cap bounds all
        assert all(0 < d <= 0.5 for d in delays)
        assert delays[2] > delays[0]

    def test_deterministic(self):
        cfg = PartitionerConfig(backoff_base=0.1)
        assert backoff_delay(cfg, 3, salt=7) == backoff_delay(cfg, 3, salt=7)
        assert backoff_delay(cfg, 3, salt=7) != backoff_delay(cfg, 3, salt=8)

    def test_zero_base_means_no_delay(self):
        cfg = PartitionerConfig(backoff_base=0.0)
        assert backoff_delay(cfg, 5, salt=1) == 0.0


class TestDeadline:
    def test_expiry(self):
        d = Deadline(1e-9)
        time.sleep(0.001)
        assert d.expired()
        assert not Deadline(60.0).expired()

    def test_from_config(self):
        assert Deadline.from_config(PartitionerConfig()) is None
        d = Deadline.from_config(PartitionerConfig(deadline=5.0))
        assert d is not None and d.budget == 5.0


# ----------------------------------------------------------------------
# retry with backoff: bit-identity against the failure-free run
# ----------------------------------------------------------------------
class TestRetry:
    def test_serial_retry_is_bit_identical(self, medium_hypergraph, serial_cfg):
        golden, _ = run(medium_hypergraph, serial_cfg)
        with inject("engine.start:crash@1") as plan:
            res, counters = run(medium_hypergraph, serial_cfg.with_(max_retries=2))
        assert plan.fired
        assert counters["engine.start_retries"] == 1
        assert np.array_equal(res.part, golden.part)
        assert res.cutsize == golden.cutsize
        # the retried start reports its retry count in the stats
        assert [s.retries for s in res.start_stats] == [1, 0, 0, 0]

    def test_process_retry_is_bit_identical(
        self, medium_hypergraph, engine_cfg, monkeypatch
    ):
        # the plan travels to the forked workers through the environment;
        # each worker's first start crashes and is retried with its seed
        golden, _ = run(medium_hypergraph, engine_cfg)
        cfg = engine_cfg.with_(max_retries=1, n_workers=2, start_backend="process")
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:crash@1")
        res, counters = run(medium_hypergraph, cfg)
        assert counters["engine.start_retries"] >= 1
        assert "engine.backend_fallbacks" not in counters
        assert np.array_equal(res.part, golden.part)

    def test_no_retries_preserves_crash_behavior(self, medium_hypergraph, serial_cfg):
        # max_retries=0 is the pre-resilience contract: serial crash raises
        with inject("engine.start:crash@1"):
            with pytest.raises(FaultInjected):
                run(medium_hypergraph, serial_cfg.with_(max_retries=0))

    def test_retries_exhausted_raises(self, medium_hypergraph, serial_cfg):
        with inject("engine.start:crash@all"):
            with pytest.raises(FaultInjected):
                run(medium_hypergraph, serial_cfg.with_(max_retries=2))

    def test_process_crash_all_still_falls_back_to_serial(
        self, medium_hypergraph, engine_cfg, monkeypatch
    ):
        # the fallback survives underneath the retry layer: when the
        # retries are exhausted on the process backend the engine still
        # degrades to the in-process serial path, which does not re-trip
        golden, _ = run(medium_hypergraph, engine_cfg)
        cfg = engine_cfg.with_(max_retries=1, n_workers=2, start_backend="process")
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:crash@all")
        res, counters = run(medium_hypergraph, cfg)
        assert counters["engine.backend_fallbacks"] >= 1
        assert np.array_equal(res.part, golden.part)

    def test_subtree_retry_is_bit_identical(self, monkeypatch):
        """``max_retries`` covers engine starts only: a crashed subtree
        task is recomputed inline at once, never re-offered to the pool,
        and the partition keeps the serial seed-tree bits."""
        from repro.partitioner import pool

        monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", 8)
        h = random_hypergraph(np.random.default_rng(5), nv=300, nn=900)
        cfg = PartitionerConfig(
            tree_parallel=True, n_workers=4, start_backend="process",
        )
        golden = partition_hypergraph(h, 8, cfg.with_(n_workers=1), seed=3)
        healthy = TelemetryRecorder()
        with use_recorder(healthy):
            partition_hypergraph(h, 8, cfg, seed=3)
        rec = TelemetryRecorder()
        # every forked subtree child inherits the plan and crashes
        monkeypatch.setenv("REPRO_FAULTS", "tree.task:crash@1")
        with use_recorder(rec):
            res = partition_hypergraph(
                h, 8, cfg.with_(max_retries=2, backoff_base=0.001), seed=3
            )
        counters = rec.counter_totals()
        assert counters["tree.task_failures"] >= 1
        assert "tree.task_retries" not in counters
        assert counters["tree.tasks_spawned"] <= (
            healthy.counter_totals()["tree.tasks_spawned"]
        )
        assert np.array_equal(res.part, golden.part)


# ----------------------------------------------------------------------
# deadline budget: graceful degradation, never an exception
# ----------------------------------------------------------------------
class TestDeadlineBudget:
    def test_expired_deadline_still_runs_one_start(
        self, medium_hypergraph, engine_cfg
    ):
        res, counters = run(medium_hypergraph, engine_cfg.with_(deadline=1e-9))
        assert res.degraded
        assert "deadline" in res.degraded_reason
        assert len(res.start_stats) >= 1
        assert counters["engine.deadline_hits"] == 1
        assert counters["engine.degraded_runs"] == 1

    def test_generous_deadline_changes_nothing(self, medium_hypergraph, engine_cfg):
        golden, _ = run(medium_hypergraph, engine_cfg)
        res, counters = run(medium_hypergraph, engine_cfg.with_(deadline=3600.0))
        assert not res.degraded
        assert res.degraded_reason is None
        assert len(res.start_stats) == engine_cfg.n_starts
        assert "engine.deadline_hits" not in counters
        assert np.array_equal(res.part, golden.part)

    def test_degraded_winner_matches_completed_prefix(
        self, medium_hypergraph, engine_cfg
    ):
        # whatever completed before the deadline, the winner is the best
        # of it by the engine's total order
        res, _ = run(medium_hypergraph, engine_cfg.with_(deadline=1e-9))
        best = min(
            res.start_stats,
            key=lambda s: (max(0.0, s.imbalance - engine_cfg.epsilon), s.cutsize, s.start),
        )
        assert res.cutsize == best.cutsize

    def test_deadline_propagates_through_decompose(self):
        import scipy.sparse as sp

        from repro.core.api import decompose

        a = sp.random(60, 60, density=0.1, format="csr", random_state=0)
        res = decompose(a, 4, n_starts=4, seed=0, deadline=1e-9)
        assert res.degraded and res.degraded_reason
        assert "[degraded]" in res.summary()


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_interrupted_sweep_resumes_exactly_the_remainder(
        self, tmp_path, serial_cfg
    ):
        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = serial_cfg.with_(
            n_starts=8, checkpoint_path=str(tmp_path / "sweep.ndjson")
        )
        golden, _ = run(h, serial_cfg.with_(n_starts=8))

        # the sweep dies at start 4 (index 3): exactly 3 starts recorded
        with inject("engine.start:crash@4"):
            with pytest.raises(FaultInjected):
                run(h, cfg)
        with pytest.warns(UserWarning, match="different sweep"):
            store = CheckpointStore.open(
                cfg.checkpoint_path, "ignore", 0.03, 8, 2, h.num_vertices
            )
        assert not store.completed
        # fingerprint mismatch loads nothing; re-open with the real one
        rng_probe = np.random.default_rng(0)
        fp = sweep_fingerprint(h, 2, cfg, rng_probe)
        store = CheckpointStore.open(
            cfg.checkpoint_path, fp, 0.03, 8, 2, h.num_vertices
        )
        assert sorted(store.completed) == [0, 1, 2]

        # the rerun completes exactly the 5 remaining starts ...
        res, counters = run(h, cfg)
        assert counters["engine.starts_resumed"] == 3
        assert counters["engine.starts"] == 8
        # ... and the result is bit-identical to the uninterrupted sweep
        assert np.array_equal(res.part, golden.part)
        assert res.cutsize == golden.cutsize
        assert [s.start for s in res.start_stats] == list(range(8))

    def test_completed_checkpoint_skips_everything(self, tmp_path, engine_cfg):
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        cfg = engine_cfg.with_(checkpoint_path=str(tmp_path / "done.ndjson"))
        first, _ = run(h, cfg)
        res, counters = run(h, cfg)
        assert counters["engine.starts_resumed"] == engine_cfg.n_starts
        assert np.array_equal(res.part, first.part)
        assert res.cutsize == first.cutsize

    def test_config_change_invalidates_checkpoint(self, tmp_path, engine_cfg):
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        path = str(tmp_path / "sweep.ndjson")
        run(h, engine_cfg.with_(checkpoint_path=path))
        # a different epsilon is a different sweep: refuse to mix results
        with pytest.warns(UserWarning, match="different sweep"):
            _, counters = run(h, engine_cfg.with_(checkpoint_path=path, epsilon=0.1))
        assert "engine.starts_resumed" not in counters
        assert counters["engine.checkpoint_mismatches"] == 1

    def test_different_seed_invalidates_checkpoint(self, tmp_path, engine_cfg):
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        path = str(tmp_path / "sweep.ndjson")
        run(h, engine_cfg.with_(checkpoint_path=path), seed=0)
        with pytest.warns(UserWarning, match="different sweep"):
            _, counters = run(h, engine_cfg.with_(checkpoint_path=path), seed=1)
        assert "engine.starts_resumed" not in counters

    def test_write_failure_never_fails_the_run(self, tmp_path, engine_cfg):
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        golden, _ = run(h, engine_cfg)
        cfg = engine_cfg.with_(checkpoint_path=str(tmp_path / "c.ndjson"))
        with inject("checkpoint.write:crash@all"):
            res, counters = run(h, cfg)
        assert counters["checkpoint.write_errors"] == engine_cfg.n_starts
        assert np.array_equal(res.part, golden.part)
        # the atomic protocol leaves no half-written file behind
        assert not os.path.exists(cfg.checkpoint_path)
        assert not os.path.exists(cfg.checkpoint_path + ".tmp")

    def test_orphaned_tmp_is_swept_on_open(self, tmp_path):
        # a crash between tmp-write and os.replace leaves sweep.ndjson.tmp
        # behind; opening the store must clean it up (and say so)
        path = str(tmp_path / "sweep.ndjson")
        with open(path + ".tmp", "w") as f:
            f.write('{"kind": "start"')  # a torn half-write
        rec = TelemetryRecorder()
        with use_recorder(rec):
            CheckpointStore.open(path, "fp", 0.03, 4, 2, 10)
        assert not os.path.exists(path + ".tmp")
        assert rec.counter_totals().get("checkpoint.tmp_swept") == 1
        # nothing to sweep: quiet no-op
        assert CheckpointStore.sweep_stale_tmp(path) is False

    @pytest.mark.parametrize("damage", ["not-json", "missing-field", "bad-part"])
    def test_corrupt_checkpoint_starts_fresh(self, tmp_path, engine_cfg, damage):
        # each damage edits a real sweep's checkpoint, so its header still
        # matches the rerun: only the damaged record can refuse it
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        cfg = engine_cfg.with_(checkpoint_path=str(tmp_path / "sweep.ndjson"))
        golden, _ = run(h, engine_cfg)
        run(h, cfg)
        with open(cfg.checkpoint_path) as f:
            recs = [json.loads(s) for s in f if s.strip()]
        if damage == "missing-field":
            first = next(i for i, r in enumerate(recs) if r["kind"] == "start")
            recs[first] = {"kind": "start", "start": 0}
        elif damage == "bad-part":
            next(r for r in recs if r["kind"] == "best")["part_b64"] = "!!!"
        with open(cfg.checkpoint_path, "w") as f:
            if damage == "not-json":
                f.write("not json at all\n")
            else:
                f.writelines(json.dumps(r) + "\n" for r in recs)
        with pytest.warns(UserWarning, match="unreadable"):
            res, counters = run(h, cfg)
        assert counters["engine.checkpoint_mismatches"] == 1
        assert "engine.starts_resumed" not in counters
        assert np.array_equal(res.part, golden.part)

    def test_file_is_always_a_complete_snapshot(self, tmp_path, engine_cfg):
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        path = str(tmp_path / "sweep.ndjson")
        res, _ = run(h, engine_cfg.with_(checkpoint_path=path))
        with open(path) as f:
            lines = [json.loads(s) for s in f if s.strip()]
        assert lines[0]["kind"] == "header"
        starts = [r for r in lines if r["kind"] == "start"]
        best = [r for r in lines if r["kind"] == "best"]
        assert len(starts) == engine_cfg.n_starts
        assert len(best) == 1
        assert best[0]["cutsize"] == res.cutsize


# ----------------------------------------------------------------------
# worker supervision (process backend)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSupervision:
    def test_killed_worker_is_respawned_and_bits_hold(self):
        h = random_hypergraph(np.random.default_rng(8), nv=300, nn=2500)
        cfg = PartitionerConfig(
            n_starts=6, n_workers=2, start_backend="process",
            heartbeat_interval=0.05, heartbeat_timeout=10.0,
        )
        golden = partition_multistart(
            h, 2, cfg.with_(start_backend="serial", n_workers=1), seed=0
        )

        def killer():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pids = list(resilience._LAST_WORKER_PIDS)
                if pids:
                    try:
                        os.kill(pids[0], signal.SIGKILL)
                        return
                    except ProcessLookupError:
                        pass
                time.sleep(0.05)

        rec = TelemetryRecorder()
        t = threading.Thread(target=killer)
        t.start()
        try:
            with use_recorder(rec):
                res = partition_multistart(h, 2, cfg, seed=0)
        finally:
            t.join()
        counters = rec.counter_totals()
        # the dead worker was respawned in place — no backend fallback
        assert counters["engine.worker_restarts"] >= 1
        assert "engine.backend_fallbacks" not in counters
        assert np.array_equal(res.part, golden.part)
        assert res.cutsize == golden.cutsize

    def test_dead_heartbeat_is_presumed_hung_and_recycled(self, monkeypatch):
        # every supervised worker's heartbeat dies instantly and every
        # start is slowed past the timeout: the supervisor recycles
        # workers until the restart budget runs out, then the backend
        # chain degrades — still bit-identical
        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = PartitionerConfig(
            n_starts=3, n_workers=2, start_backend="process",
            heartbeat_interval=0.05, heartbeat_timeout=0.4,
            max_retries=1, backoff_base=0.001,
        )
        golden = partition_multistart(
            h, 2, cfg.with_(start_backend="serial", n_workers=1), seed=0
        )
        monkeypatch.setenv(
            "REPRO_FAULTS", "worker.heartbeat:crash@1,engine.start:sleep1.0@all"
        )
        rec = TelemetryRecorder()
        with use_recorder(rec):
            res = partition_multistart(h, 2, cfg, seed=0)
        counters = rec.counter_totals()
        assert counters["engine.worker_restarts"] >= 1
        assert counters["engine.backend_fallbacks"] >= 1
        assert np.array_equal(res.part, golden.part)

    def test_live_heartbeats_prevent_false_recycling(self, monkeypatch):
        # every start outlasts the heartbeat timeout three times over: only
        # the stamps the workers write into the array they share with the
        # supervisor keep it from presuming them hung
        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = PartitionerConfig(
            n_starts=2, n_workers=2, start_backend="process",
            heartbeat_interval=0.05, heartbeat_timeout=0.5,
        )
        golden = partition_multistart(
            h, 2, cfg.with_(start_backend="serial", n_workers=1), seed=0
        )
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:sleep1.5@all")
        rec = TelemetryRecorder()
        with use_recorder(rec):
            res = partition_multistart(h, 2, cfg, seed=0)
        counters = rec.counter_totals()
        assert "engine.worker_restarts" not in counters
        assert "engine.backend_fallbacks" not in counters
        assert np.array_equal(res.part, golden.part)

    def test_supervised_process_backend_matches_serial(self, medium_hypergraph):
        cfg = PartitionerConfig(n_starts=4, n_workers=2, start_backend="process")
        golden = partition_multistart(
            medium_hypergraph, 2, cfg.with_(start_backend="serial", n_workers=1),
            seed=0,
        )
        res = partition_multistart(medium_hypergraph, 2, cfg, seed=0)
        assert np.array_equal(res.part, golden.part)


# ----------------------------------------------------------------------
# shipped seed-tree subtrees are supervised children
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sherman3_finegrain():
    """Fine-grain ``sherman3@0.5``: big enough that K=4 ships the root's
    right subtree (and only that one) to a forked child."""
    from repro.cli import load_matrix_arg
    from repro.core.finegrain import build_finegrain_model

    h = build_finegrain_model(load_matrix_arg("collection:sherman3@0.5")).hypergraph
    serial = PartitionerConfig(tree_parallel=True, n_workers=1)
    return h, partition_hypergraph(h, 4, serial, seed=0).part


class TestSubtreeSupervision:
    CFG = dict(
        tree_parallel=True, n_workers=2, start_backend="process",
        heartbeat_interval=0.05, heartbeat_timeout=0.5,
    )

    def run(self, h):
        rec = TelemetryRecorder()
        with use_recorder(rec):
            res = partition_hypergraph(h, 4, PartitionerConfig(**self.CFG), seed=0)
        return res, rec.counter_totals()

    def test_hung_subtree_is_killed_and_recomputed(
        self, sherman3_finegrain, monkeypatch
    ):
        # the child's heartbeat dies at once and its task sleeps 8 s: the
        # walker kills it after heartbeat_timeout and solves it inline
        h, golden = sherman3_finegrain
        monkeypatch.setenv(
            "REPRO_FAULTS", "worker.heartbeat:crash@1,tree.task:sleep8"
        )
        t0 = time.monotonic()
        res, counters = self.run(h)
        assert time.monotonic() - t0 < 4.0
        assert counters["tree.tasks_spawned"] == 1
        assert counters["tree.task_failures"] == 1
        assert np.array_equal(res.part, golden)
        assert not mp.active_children()

    def test_slow_subtree_with_live_heartbeats_is_waited_for(
        self, sherman3_finegrain, monkeypatch
    ):
        # the task outlasts the heartbeat timeout three times over: only
        # the child's stamps keep the walker from presuming it hung
        h, golden = sherman3_finegrain
        monkeypatch.setenv("REPRO_FAULTS", "tree.task:sleep1.5")
        res, counters = self.run(h)
        assert counters["tree.tasks_spawned"] == 1
        assert "tree.task_failures" not in counters
        assert np.array_equal(res.part, golden)

    def test_silently_dead_subtree_is_recomputed(
        self, sherman3_finegrain, monkeypatch
    ):
        from repro.partitioner import recursive

        h, golden = sherman3_finegrain
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        # forked children inherit the patch: the child exits, sending nothing
        monkeypatch.setattr(recursive, "_solve_subtree", lambda *a: os._exit(3))
        res, counters = self.run(h)
        assert counters["tree.task_failures"] == 1
        assert np.array_equal(res.part, golden)
        assert not mp.active_children()

    def test_failed_walk_kills_the_shipped_child(
        self, sherman3_finegrain, monkeypatch
    ):
        from repro.partitioner import recursive

        h, _ = sherman3_finegrain
        monkeypatch.setenv("REPRO_FAULTS", "tree.task:sleep30")
        node_rng = recursive._node_rng

        def walk_fails_at_r0(stream, path):
            if path == (0,):
                raise ValueError("walk failed at r0")
            return node_rng(stream, path)

        monkeypatch.setattr(recursive, "_node_rng", walk_fails_at_r0)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="walk failed at r0"):
            self.run(h)
        assert time.monotonic() - t0 < 5.0
        assert not mp.active_children()


# ----------------------------------------------------------------------
# parallel SpMV shutdown hardening
# ----------------------------------------------------------------------
class TestSpmvShutdown:
    def test_hung_rank_raises_named_timeout(self, small_sparse_matrix, monkeypatch):
        from repro.core.api import decompose
        from repro.spmv import parallel as par

        res = decompose(small_sparse_matrix, 3, seed=0)
        x = np.random.default_rng(1).standard_normal(small_sparse_matrix.shape[1])

        real_worker = par._worker

        def wedged(rank, plan_data, local, inboxes, result_queue):
            if rank == 1:
                time.sleep(3600)
            real_worker(rank, plan_data, local, inboxes, result_queue)

        monkeypatch.setattr(par, "_worker", wedged)
        rec = TelemetryRecorder()
        with use_recorder(rec):
            # rank 1 never posts its expand fragments, so the whole
            # collective stalls — the error must name the missing ranks
            with pytest.raises(TimeoutError, match=r"missing ranks \[[012]"):
                par.parallel_spmv(res.decomposition, x, timeout=1.0)
        # the wedged rank was force-stopped, not leaked
        assert rec.counter_totals()["spmv.worker_killed"] >= 1

    def test_clean_run_kills_nothing(self, small_sparse_matrix):
        from repro.core.api import decompose
        from repro.spmv.parallel import parallel_spmv

        res = decompose(small_sparse_matrix, 3, seed=0)
        x = np.random.default_rng(1).standard_normal(small_sparse_matrix.shape[1])
        rec = TelemetryRecorder()
        with use_recorder(rec):
            y = parallel_spmv(res.decomposition, x)
        assert np.allclose(y, small_sparse_matrix @ x)
        assert "spmv.worker_killed" not in rec.counter_totals()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliFlags:
    def test_partition_checkpoint_resume_round_trip(self, tmp_path, capsys):
        import scipy.sparse as sp

        from repro.cli import main
        from repro.matrix.io import write_matrix_market

        a = sp.random(50, 50, density=0.1, format="csr", random_state=3)
        mtx = tmp_path / "m.mtx"
        write_matrix_market(a, mtx)
        ck = tmp_path / "sweep.ndjson"
        args = [
            "partition", str(mtx), "-k", "3", "--starts", "3",
            "--retries", "2", "--checkpoint", str(ck),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert ck.exists()
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second  # resumed sweep reports identical quality

    def test_fresh_run_clears_stale_checkpoint(self, tmp_path):
        import scipy.sparse as sp

        from repro.cli import main
        from repro.matrix.io import write_matrix_market

        a = sp.random(40, 40, density=0.1, format="csr", random_state=3)
        mtx = tmp_path / "m.mtx"
        write_matrix_market(a, mtx)
        ck = tmp_path / "sweep.ndjson"
        ck.write_text("stale\n")
        assert main(
            ["partition", str(mtx), "-k", "2", "--starts", "2",
             "--checkpoint", str(ck)]
        ) == 0
        assert "stale" not in ck.read_text()
