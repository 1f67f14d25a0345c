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
    sweep_fingerprint,
)
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.verify.faults import inject

from .conftest import random_hypergraph


@pytest.fixture
def medium_hypergraph():
    """Big enough that a start takes measurable time on every backend."""
    return random_hypergraph(np.random.default_rng(11), nv=120, nn=400)


@pytest.fixture
def engine_cfg():
    return PartitionerConfig(n_starts=4)


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


def recomputed_starts(rec: TelemetryRecorder) -> list[int]:
    """Start indices of the ``engine.start`` spans marked recomputed."""
    return sorted(
        span.attrs["start"]
        for root in rec.roots
        for span in root.find("engine.start")
        if span.attrs.get("recomputed")
    )


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
# one failure rule on both backends: a failed start is recomputed once
# inline, bit-identical to the failure-free run
# ----------------------------------------------------------------------
def _fail_start(*_args):
    raise RuntimeError("start failed")


def _fail_recompute(*_args):
    raise RuntimeError("recompute failed")


class TestRetry:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_one_crashed_start_is_recomputed_inline(
        self, medium_hypergraph, engine_cfg, backend
    ):
        # hits are numbered per sweep on both backends, so crash@2
        # crashes exactly the second start, in-process or in its child
        golden, _ = run(medium_hypergraph, engine_cfg)
        cfg = engine_cfg.with_(n_workers=2, start_backend=backend)
        rec = TelemetryRecorder()
        with inject("engine.start:crash@2"), use_recorder(rec):
            res = partition_multistart(medium_hypergraph, 2, cfg, seed=0)
        assert rec.counter_totals()["engine.start_failures"] == 1
        assert recomputed_starts(rec) == [1]
        assert np.array_equal(res.part, golden.part)
        assert res.cutsize == golden.cutsize
        assert not mp.active_children()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failed_recompute_propagates(
        self, medium_hypergraph, engine_cfg, backend, monkeypatch
    ):
        from repro.partitioner import driver, engine

        # forked children inherit the failing start body
        monkeypatch.setattr(engine, "_run_start", _fail_start)
        monkeypatch.setattr(driver, "partition_hypergraph", _fail_recompute)
        cfg = engine_cfg.with_(n_workers=2, start_backend=backend)
        with pytest.raises(RuntimeError, match="recompute failed"):
            run(medium_hypergraph, cfg)
        assert not mp.active_children()

    def test_process_crash_is_recomputed_inline(
        self, medium_hypergraph, engine_cfg, monkeypatch
    ):
        # the plan travels to the forked children through the environment;
        # each child's one start crashes, and the parent recomputes it at
        # once with its seed
        golden, _ = run(medium_hypergraph, engine_cfg)
        cfg = engine_cfg.with_(n_workers=2, start_backend="process")
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:crash@all")
        res, counters = run(medium_hypergraph, cfg)
        assert counters["engine.start_failures"] == engine_cfg.n_starts
        assert np.array_equal(res.part, golden.part)
        assert not mp.active_children()

    def test_process_crash_all_still_falls_back_to_serial(
        self, medium_hypergraph, engine_cfg
    ):
        # every child inherits the in-process plan by fork and crashes;
        # each start falls back to the in-process body, which has no
        # fault site, so the sweep keeps serial bits
        golden, _ = run(medium_hypergraph, engine_cfg)
        cfg = engine_cfg.with_(n_workers=2, start_backend="process")
        with inject("engine.start:crash@all"):
            res, counters = run(medium_hypergraph, cfg)
        assert counters["engine.start_failures"] == engine_cfg.n_starts
        assert np.array_equal(res.part, golden.part)
        assert not mp.active_children()

    def test_refused_fork_runs_the_start_inline(
        self, medium_hypergraph, engine_cfg, monkeypatch
    ):
        golden, _ = run(medium_hypergraph, engine_cfg)

        def refuse(*_args, **_kw):
            raise OSError("fork refused")

        monkeypatch.setattr(resilience.SupervisedTask, "__init__", refuse)
        cfg = engine_cfg.with_(n_workers=2, start_backend="process")
        res, counters = run(medium_hypergraph, cfg)
        assert counters["engine.start_failures"] == engine_cfg.n_starts
        assert np.array_equal(res.part, golden.part)
        assert not mp.active_children()

    def test_subtree_retry_is_bit_identical(self, monkeypatch):
        """A crashed subtree task is recomputed inline at once, never
        re-offered to the pool, and the partition keeps the serial
        seed-tree bits."""
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
            res = partition_hypergraph(h, 8, cfg, seed=3)
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
        self, tmp_path, serial_cfg, monkeypatch
    ):
        from repro.partitioner import driver, engine

        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = serial_cfg.with_(
            n_starts=8, checkpoint_path=str(tmp_path / "sweep.ndjson")
        )
        golden, _ = run(h, serial_cfg.with_(n_starts=8))

        # a genuine failure from start 4 (index 3) on, in the first attempt
        # and in the recompute, ends the sweep: exactly 3 starts recorded
        run_start, calls = engine._run_start, []

        def fails_from_the_4th_start(*args):
            calls.append(args)
            if len(calls) >= 4:
                raise RuntimeError("start failed")
            return run_start(*args)

        with monkeypatch.context() as m:
            m.setattr(engine, "_run_start", fails_from_the_4th_start)
            m.setattr(driver, "partition_hypergraph", _fail_recompute)
            with pytest.raises(RuntimeError, match="recompute failed"):
                run(h, cfg)
        assert len(calls) == 4
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

    def test_record_with_a_retries_count_still_resumes(
        self, tmp_path, engine_cfg
    ):
        # files written while starts had a retry count carry "retries"
        # in every start record; the loader ignores the key
        h = random_hypergraph(np.random.default_rng(2), nv=60, nn=150)
        cfg = engine_cfg.with_(checkpoint_path=str(tmp_path / "old.ndjson"))
        first, _ = run(h, cfg)
        with open(cfg.checkpoint_path) as f:
            recs = [json.loads(s) for s in f if s.strip()]
        for r in recs:
            if r["kind"] == "start":
                r["retries"] = 0
        with open(cfg.checkpoint_path, "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in recs)
        res, counters = run(h, cfg)
        assert counters["engine.starts_resumed"] == engine_cfg.n_starts
        assert "engine.checkpoint_mismatches" not in counters
        assert np.array_equal(res.part, first.part)

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
    def test_killed_start_child_is_recomputed_and_bits_hold(self, monkeypatch):
        h = random_hypergraph(np.random.default_rng(8), nv=300, nn=2500)
        cfg = PartitionerConfig(
            n_starts=6, n_workers=2, start_backend="process",
            heartbeat_interval=0.05, heartbeat_timeout=10.0,
        )
        golden = partition_multistart(
            h, 2, cfg.with_(start_backend="serial", n_workers=1), seed=0
        )
        # each child sleeps before its start, so the SIGKILL lands mid-start
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:sleep0.5@all")

        def killer():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                children = mp.active_children()
                if children:
                    try:
                        os.kill(children[0].pid, signal.SIGKILL)
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
        assert counters["engine.start_failures"] >= 1
        assert np.array_equal(res.part, golden.part)
        assert res.cutsize == golden.cutsize
        assert not mp.active_children()

    def test_dead_heartbeat_is_presumed_hung_and_recycled(self, monkeypatch):
        # every child's heartbeat dies at once and every start is slowed
        # past the timeout: the parent kills each child as hung and
        # recomputes its start inline, with the serial bits
        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = PartitionerConfig(
            n_starts=3, n_workers=2, start_backend="process",
            heartbeat_interval=0.05, heartbeat_timeout=0.4,
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
        assert counters["engine.start_failures"] == cfg.n_starts
        assert np.array_equal(res.part, golden.part)
        assert not mp.active_children()

    def test_live_heartbeats_prevent_false_recycling(self, monkeypatch):
        # every start outlasts the heartbeat timeout three times over: only
        # the stamps the children write into the arrays they share with
        # the parent keep it from presuming them hung
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
        assert "engine.start_failures" not in counters
        assert np.array_equal(res.part, golden.part)

    def test_supervised_process_backend_matches_serial(self, medium_hypergraph):
        cfg = PartitionerConfig(n_starts=4, n_workers=2, start_backend="process")
        golden = partition_multistart(
            medium_hypergraph, 2, cfg.with_(start_backend="serial", n_workers=1),
            seed=0,
        )
        res = partition_multistart(medium_hypergraph, 2, cfg, seed=0)
        assert np.array_equal(res.part, golden.part)

    def test_sweep_keeps_at_most_n_workers_children(
        self, medium_hypergraph, monkeypatch
    ):
        cfg = PartitionerConfig(n_starts=4, n_workers=2, start_backend="process")
        golden = partition_multistart(
            medium_hypergraph, 2, cfg.with_(start_backend="serial", n_workers=1),
            seed=0,
        )
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:sleep0.3@all")
        seen: list[int] = []
        done = threading.Event()

        def sample():
            while not done.is_set():
                seen.append(len(mp.active_children()))
                time.sleep(0.01)

        t = threading.Thread(target=sample)
        t.start()
        try:
            rec = TelemetryRecorder()
            with use_recorder(rec):
                res = partition_multistart(medium_hypergraph, 2, cfg, seed=0)
        finally:
            done.set()
            t.join()
        assert max(seen) == 2
        assert "engine.start_failures" not in rec.counter_totals()
        assert np.array_equal(res.part, golden.part)

    def test_completed_sweep_leaves_no_child_alive(self):
        # every child is reaped before the sweep returns, so no later
        # reader of the process table can find (and signal) a stale pid
        h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
        cfg = PartitionerConfig(n_starts=3, n_workers=2, start_backend="process")
        partition_multistart(h, 2, cfg, seed=0)
        assert not mp.active_children()

    def test_unpicklable_start_exception_ends_the_sweep(self):
        # the child cannot pickle its failure, so its send raises and the
        # child dies; the parent reads EOF, kills and reaps the child and
        # recomputes the start inline.  The sweep runs in a forked child
        # so a hang fails the test here instead of hanging the suite.
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_sweep_with_unpicklable_failure, args=(send,))
        child.start()
        send.close()
        child.join(30)
        if child.is_alive():
            os.killpg(child.pid, signal.SIGKILL)  # the child and its children
            child.join()
            pytest.fail("the sweep was still waiting after 30 s")
        assert recv.poll(), f"the child exited ({child.exitcode}) without a report"
        outcome, elapsed = recv.recv()
        assert outcome == "serial bits after inline recomputes"
        assert elapsed < 10.0

    def test_killed_parent_leaves_no_workers(self):
        # a process running a multi-start sweep is SIGKILLed while its
        # children sleep in their starts: each child notices its parent
        # is gone on its next heartbeat tick and exits
        interval = 0.1
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_sweep_reporting_worker_pids, args=(send, interval)
        )
        child.start()
        send.close()
        pids = []
        try:
            assert recv.poll(30), "the sweep never reported its workers"
            pids = recv.recv()
            assert len(pids) == 2 and all(_running(p) for p in pids)
            os.kill(child.pid, signal.SIGKILL)
            child.join()
            deadline = time.monotonic() + 20 * interval
            while any(_running(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(interval / 2)
            assert not [p for p in pids if _running(p)]
        finally:
            if child.is_alive() or any(_running(p) for p in pids):
                os.killpg(child.pid, signal.SIGKILL)  # the child and its workers
            child.join()


def _running(pid: int) -> bool:
    """*pid* names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _sweep_reporting_worker_pids(conn, interval: float) -> None:
    """Child main: a two-worker process sweep whose starts sleep for a
    minute; sends the start children's pids once both are running."""
    os.setpgrp()  # one group with the workers, so cleanup can kill it whole
    os.environ["REPRO_FAULTS"] = "engine.start:sleep60@all"

    def report():
        while len(children := mp.active_children()) < 2:
            time.sleep(0.01)
        conn.send([c.pid for c in children])

    threading.Thread(target=report, daemon=True).start()
    h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
    cfg = PartitionerConfig(
        n_starts=2, n_workers=2, start_backend="process",
        heartbeat_interval=interval, heartbeat_timeout=120.0,
    )
    partition_multistart(h, 2, cfg, seed=0)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


def _raise_unpicklable(*_args):
    raise _Unpicklable("start failed")


def _sweep_with_unpicklable_failure(conn) -> None:
    """Child main: a two-start process sweep whose every start raises an
    exception that cannot be pickled; reports how the sweep ended."""
    from repro.partitioner import engine

    os.setpgrp()  # one group with its children, so a hang is killed whole
    h = random_hypergraph(np.random.default_rng(11), nv=120, nn=400)
    cfg = PartitionerConfig(
        n_starts=2, n_workers=2, start_backend="process",
        heartbeat_interval=0.05, heartbeat_timeout=1.0,
    )
    golden = partition_multistart(
        h, 2, cfg.with_(start_backend="serial", n_workers=1), seed=0
    )
    engine._run_start = _raise_unpicklable  # forked children inherit it
    t0 = time.monotonic()
    try:
        with use_recorder() as rec:
            res = partition_multistart(h, 2, cfg, seed=0)
    except Exception as exc:
        outcome = f"raised {type(exc).__name__}"
    else:
        failures = rec.counter_totals().get("engine.start_failures", 0)
        same = np.array_equal(res.part, golden.part)
        left = len(mp.active_children())
        outcome = (
            "serial bits after inline recomputes"
            if failures == 2 and same and not left
            else f"failures={failures} same_bits={same} children_left={left}"
        )
    conn.send((outcome, time.monotonic() - t0))
    conn.close()


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
            "--checkpoint", str(ck),
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
