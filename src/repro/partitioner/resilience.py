"""Resilient execution runtime for the multi-start engine.

The paper's evaluation is a long fan-out campaign — 14 matrices x three K
values x three models, each best-of-N — exactly the shape of run where one
hung worker or OOM-killed process used to throw away hours of work.  This
module is the recovery layer the fault-injection suite (PR 4) exists to
exercise:

retry with backoff
    A failed or crashed start is retried up to ``cfg.max_retries`` times
    with exponential backoff and deterministic jitter
    (:func:`backoff_delay`).  A retried start re-derives its original
    seed, so retries are invisible in the output — the partition stays
    bit-identical to a failure-free run.
worker supervision
    The process backend runs under a supervisor: workers are forked, so
    each inherits the hypergraph without a copy, and each stamps its
    heartbeat slot of an unnamed shared array, allocated before the fork,
    from a background thread; the parent detects dead or hung workers,
    kills and respawns them, and re-queues their in-flight seeds
    (``engine.worker_restarts`` telemetry).  A bounded restart budget
    keeps a deterministic crash from looping forever — when it runs out
    the pool declares itself broken and the engine falls back to
    in-process serial execution.  A shipped seed-tree subtree is a
    one-task worker of the same kind (:class:`SupervisedTask`): forked at
    offer time, heartbeating, and killed when it dies or hangs, so the
    caller can recompute it inline.
deadline budget
    ``cfg.deadline`` (or ``decompose(deadline=...)`` /
    ``REPRO_DEADLINE``) caps the engine call's wall clock *gracefully*:
    past the deadline no new starts launch, in-flight starts finish, and
    the best completed start is returned with
    ``PartitionResult.degraded`` set — never an exception once at least
    one start has finished, and at least one start always runs.
checkpoint / resume
    ``cfg.checkpoint_path`` makes the sweep crash-resumable: after every
    completed start the :class:`CheckpointStore` atomically rewrites
    (tmp + ``os.replace``) an NDJSON record of the per-start statistics
    plus the best partition vector so far.  A rerun with the same
    hypergraph, config and seed skips the recorded starts
    (``engine.starts_resumed``) and completes exactly the remainder.  A
    fingerprint mismatch (different config/seed/instance) is refused
    with a warning rather than silently mixing sweeps, and so is a
    corrupt record: the sweep starts fresh.

Every failure path here is driven deterministically by the
``engine.start``, ``worker.heartbeat``, ``tree.task`` and
``checkpoint.write`` fault sites of :mod:`repro.verify.faults`, and the
bit-identity promises are asserted by ``tests/test_resilience.py``
against the failure-free golden partitions.
"""

from __future__ import annotations

import base64
import copy
import json
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = [
    "backoff_delay",
    "Deadline",
    "ResumedStart",
    "CheckpointStore",
    "StartsOutcome",
    "SupervisedTask",
    "WorkerPoolBroken",
    "sweep_fingerprint",
    "run_starts",
]

#: pids of the most recently spawned supervised workers (test hook: lets
#: the kill-a-worker-mid-start suite SIGKILL a live worker without
#: reaching into the pool internals)
_LAST_WORKER_PIDS: list[int] = []


class WorkerPoolBroken(RuntimeError):
    """The supervised pool exhausted its restart budget (a RuntimeError on
    purpose: the engine's serial fallback catches it)."""


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
def backoff_delay(cfg: PartitionerConfig, attempt: int, salt=0) -> float:
    """Delay in seconds before retry number ``attempt`` (0-based).

    Exponential growth ``backoff_base * 2**attempt`` capped at
    ``backoff_cap``, scaled by a jitter factor in [0.5, 1.0] derived from
    ``(salt, attempt)`` with CRC32 — deterministic (repeated runs sleep
    identically; the partitioning RNG is never consumed) yet spread out,
    so a crashed fan-out does not thunder back in lockstep.
    """
    if cfg.backoff_base <= 0:
        return 0.0
    raw = min(cfg.backoff_cap, cfg.backoff_base * (2.0 ** attempt))
    u = zlib.crc32(f"{salt}:{attempt}".encode()) / 0xFFFFFFFF
    return raw * (0.5 + 0.5 * u)


# ----------------------------------------------------------------------
# deadline budget
# ----------------------------------------------------------------------
class Deadline:
    """Monotonic wall-clock budget for one engine call."""

    def __init__(self, budget: float) -> None:
        self.budget = float(budget)
        self._t0 = time.monotonic()

    @classmethod
    def from_config(cls, cfg: PartitionerConfig) -> "Deadline | None":
        return cls(cfg.deadline) if cfg.deadline is not None else None

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def expired(self) -> bool:
        return self.elapsed() >= self.budget


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResumedStart:
    """Per-start statistics recovered from a checkpoint file."""

    start: int
    seed: int
    cutsize: int
    imbalance: float
    runtime: float
    retries: int = 0


def sweep_fingerprint(
    h: Hypergraph, k: int, cfg: PartitionerConfig, rng: np.random.Generator
) -> str:
    """Identity of a multi-start sweep: instance + bit-shaping config + seed.

    A thin wrapper over the library-wide :func:`repro.fingerprint`
    helper (content-addressed: the hypergraph's pin/weight/cost arrays
    participate, not just its dimensions — the same key derivation the
    serving cache and clients use).  Computed from the engine RNG state
    *before* any draws, so the same explicit seed always fingerprints
    identically; a ``seed=None`` run gets a fresh fingerprint every time
    and therefore never resumes.
    """
    from repro.fingerprint import fingerprint

    return fingerprint(h, cfg, rng, k=int(k))


def _start_key(imbalance: float, cutsize: int, start: int, epsilon: float):
    """The engine's winner total order: (balance excess, cut, start index)."""
    return (max(0.0, imbalance - epsilon), int(cutsize), int(start))


class CheckpointStore:
    """Atomic NDJSON record of a sweep's completed starts.

    File format (one JSON object per line)::

        {"kind": "header", "version": 1, "fingerprint": ..., "n_starts": N, "k": K}
        {"kind": "start", "start": 0, "seed": -1, "cutsize": ..., "imbalance": ...,
         "runtime": ..., "retries": 0}
        {"kind": "best", "start": 2, "cutsize": ..., "cutsize_cutnet": ...,
         "imbalance": ..., "runtime": ..., "part_b64": "...", "dtype": "int64"}

    Every :meth:`record` rewrites the whole file to a sibling ``.tmp``
    and ``os.replace``\\ s it into place, so the file on disk is always a
    complete, parseable snapshot — a kill at any instant loses at most
    the start that was in flight.  A write failure (injectable at the
    ``checkpoint.write`` fault site) must never fail the partitioning run
    that produced the result: it is absorbed and counted as
    ``checkpoint.write_errors``.
    """

    VERSION = 1

    def __init__(self, path: str, fingerprint: str, epsilon: float,
                 n_starts: int, k: int, num_vertices: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.epsilon = epsilon
        self.n_starts = n_starts
        self.k = k
        self.num_vertices = num_vertices
        #: start index -> ResumedStart for every recorded completion
        self.completed: dict[int, ResumedStart] = {}
        self._best_record: dict | None = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, fingerprint: str, epsilon: float,
             n_starts: int, k: int, num_vertices: int) -> "CheckpointStore":
        """Load *path* if it records the same sweep, else start fresh.

        A record that is missing a field, or a best partition that is not
        exactly *num_vertices* part ids in ``[0, k)``, makes the whole file
        unreadable: nothing of it is resumed.

        Also sweeps any stale ``<path>.tmp`` left behind by a process that
        died between the tmp-write and the atomic ``os.replace`` — the
        real checkpoint (if any) is intact in that case, and the orphan
        would otherwise accumulate forever (counted as
        ``checkpoint.tmp_swept``).
        """
        cls.sweep_stale_tmp(path)
        store = cls(path, fingerprint, epsilon, n_starts, k, num_vertices)
        if os.path.exists(path):
            store._load()
        return store

    @staticmethod
    def sweep_stale_tmp(path: str) -> bool:
        """Remove an orphaned ``<path>.tmp``; True when one was removed."""
        tmp = path + ".tmp"
        try:
            os.remove(tmp)
        except OSError:
            return False
        get_recorder().add("checkpoint.tmp_swept")
        return True

    def _refuse(self, why: str) -> None:
        warnings.warn(
            f"checkpoint {self.path!r} {why}; starting fresh", stacklevel=4
        )
        get_recorder().add("engine.checkpoint_mismatches")

    def _load(self) -> None:
        try:
            with open(self.path) as f:
                lines = [json.loads(s) for s in f if s.strip()]
        except (OSError, ValueError):
            self._refuse("is unreadable")
            return
        header = lines[0] if lines else None
        if not isinstance(header, dict) or header.get("kind") != "header":
            self._refuse("has no header")
            return
        if header.get("fingerprint") != self.fingerprint:
            self._refuse(
                "records a different sweep (config, seed or instance changed)"
            )
            return
        try:
            for rec in lines[1:]:
                if rec["kind"] == "start":
                    start = int(rec["start"])
                    if not 0 <= start < self.n_starts:
                        raise ValueError(f"start {start} out of range")
                    self.completed[start] = ResumedStart(
                        start=start,
                        seed=int(rec["seed"]),
                        cutsize=int(rec["cutsize"]),
                        imbalance=float(rec["imbalance"]),
                        runtime=float(rec["runtime"]),
                        retries=int(rec.get("retries", 0)),
                    )
                elif rec["kind"] == "best":
                    self._best_record = rec
            self.best_result()  # decodes and checks the best partition
        except (KeyError, TypeError, ValueError) as exc:
            self.completed.clear()
            self._best_record = None
            self._refuse(f"is unreadable ({type(exc).__name__}: {exc})")

    # ------------------------------------------------------------------
    def best_result(self):
        """``(start_index, PartitionResult)`` recovered from the record,
        or ``None`` when the checkpoint holds no completed start yet.

        Raises ``ValueError`` when the recorded part vector is not
        ``num_vertices`` part ids in ``[0, k)``.
        """
        from repro.partitioner.driver import PartitionResult

        rec = self._best_record
        if rec is None:
            return None
        raw = base64.b64decode(rec["part_b64"], validate=True)
        part = np.frombuffer(raw, dtype=np.dtype(rec["dtype"])).copy()
        if (
            part.shape != (self.num_vertices,)
            or part.dtype.kind not in "iu"
            or (part.size and not 0 <= part.min() <= part.max() < self.k)
        ):
            raise ValueError(
                f"best part is not {self.num_vertices} part ids in "
                f"[0, {self.k})"
            )
        return int(rec["start"]), PartitionResult(
            part=part,
            k=self.k,
            cutsize=int(rec["cutsize"]),
            cutsize_cutnet=int(rec.get("cutsize_cutnet", 0)),
            imbalance=float(rec["imbalance"]),
            runtime=float(rec["runtime"]),
            bisection_cuts=[],
        )

    def record(self, start: int, seed: int, res, retries: int = 0) -> None:
        """Register one completed start and persist the new snapshot."""
        self.completed[start] = ResumedStart(
            start=start,
            seed=seed,
            cutsize=int(res.cutsize),
            imbalance=float(res.imbalance),
            runtime=float(res.runtime),
            retries=int(retries),
        )
        key = _start_key(res.imbalance, res.cutsize, start, self.epsilon)
        if self._best_record is None or key < _start_key(
            self._best_record["imbalance"],
            self._best_record["cutsize"],
            self._best_record["start"],
            self.epsilon,
        ):
            part = np.ascontiguousarray(res.part, dtype=np.int64)
            self._best_record = {
                "kind": "best",
                "start": int(start),
                "cutsize": int(res.cutsize),
                "cutsize_cutnet": int(getattr(res, "cutsize_cutnet", 0)),
                "imbalance": float(res.imbalance),
                "runtime": float(res.runtime),
                "part_b64": base64.b64encode(part.tobytes()).decode("ascii"),
                "dtype": "int64",
            }
        self.write()

    def write(self) -> None:
        """Atomically rewrite the snapshot; failures are absorbed."""
        rec = get_recorder()
        lines = [
            {
                "kind": "header",
                "version": self.VERSION,
                "fingerprint": self.fingerprint,
                "n_starts": self.n_starts,
                "k": self.k,
            }
        ]
        lines += [
            {"kind": "start", "start": s.start, "seed": s.seed,
             "cutsize": s.cutsize, "imbalance": s.imbalance,
             "runtime": s.runtime, "retries": s.retries}
            for s in sorted(self.completed.values(), key=lambda x: x.start)
        ]
        if self._best_record is not None:
            lines.append(self._best_record)
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w") as f:
                for obj in lines:
                    f.write(json.dumps(obj) + "\n")
            _fault_trip("checkpoint.write")
            os.replace(tmp, self.path)
            rec.add("engine.checkpoint_writes")
        except (OSError, RuntimeError):
            # a full disk (or an injected fault) costs resumability of the
            # newest start, never the run itself
            rec.add("checkpoint.write_errors")
            try:
                os.remove(tmp)
            except OSError:
                pass


# ----------------------------------------------------------------------
# outcome of one execution attempt
# ----------------------------------------------------------------------
@dataclass
class StartsOutcome:
    """Everything the engine needs from the start-execution layer."""

    #: freshly computed results by start index
    completed: dict = field(default_factory=dict)
    #: retry count by start index (fresh starts that needed retries only)
    retries: dict = field(default_factory=dict)
    #: statistics of starts skipped because a checkpoint already had them
    resumed: dict = field(default_factory=dict)
    #: ``(start_index, PartitionResult)`` best among the resumed starts
    resumed_best: tuple | None = None
    #: why the run is degraded (``"deadline"``), or None for a clean run
    degraded_reason: str | None = None
    #: start indices that never ran (deadline hit)
    skipped: list = field(default_factory=list)

    def reset_fresh(self) -> None:
        """Drop the fresh-execution state before a backend fallback rerun
        (resumed state survives — it came from the checkpoint)."""
        self.completed.clear()
        self.retries.clear()
        self.skipped = []
        self.degraded_reason = None


def _fresh_seed(seeds: list, i: int):
    """The seed start *i* runs with — always re-derived from the pristine
    entry, so a retry replays the exact stream of the first attempt."""
    s = seeds[i]
    return copy.deepcopy(s) if isinstance(s, np.random.Generator) else s


def _complete(outcome: StartsOutcome, store: CheckpointStore | None,
              i: int, seeds: list, res) -> None:
    outcome.completed[i] = res
    if store is not None:
        seed_i = seeds[i] if isinstance(seeds[i], int) else -1
        store.record(i, seed_i, res, retries=outcome.retries.get(i, 0))


# ----------------------------------------------------------------------
# serial backend
# ----------------------------------------------------------------------
def _serial_starts(h, k, single, seeds, todo, cfg, outcome, store, deadline,
                   trip: bool) -> None:
    """Run *todo* starts in-process.

    ``trip=True`` routes each start through the ``engine.start`` fault
    site with the retry policy; ``trip=False`` is the last-resort
    fallback body (no site, no retry) used when the process backend has
    already failed — it must not re-fire the very faults it is
    recovering from.
    """
    rec = get_recorder()
    from repro.partitioner import engine as _engine
    from repro.partitioner.driver import partition_hypergraph

    for pos, i in enumerate(todo):
        if (
            deadline is not None
            and deadline.expired()
            and (outcome.completed or outcome.resumed)
        ):
            outcome.skipped = list(todo[pos:])
            outcome.degraded_reason = "deadline"
            rec.add("engine.deadline_hits")
            break
        seed_label = seeds[i] if isinstance(seeds[i], int) else -1
        with rec.span("engine.start", start=i, seed=seed_label) as sp:
            attempt = 0
            while True:
                s = _fresh_seed(seeds, i)
                try:
                    if trip:
                        res = _engine._run_start(h, k, single, s)
                    else:
                        res = partition_hypergraph(h, k, single, s)
                    break
                except Exception:
                    if attempt >= cfg.max_retries:
                        raise
                    rec.add("engine.start_retries")
                    outcome.retries[i] = attempt + 1
                    time.sleep(backoff_delay(cfg, attempt, salt=i))
                    attempt += 1
            sp.set(cutsize=res.cutsize)
        _complete(outcome, store, i, seeds, res)


# ----------------------------------------------------------------------
# supervised process backend
# ----------------------------------------------------------------------
def _beat_loop(beats, rank: int, interval: float,
               stop: threading.Event) -> None:
    """Worker-side heartbeat writer (daemon thread).

    Stamps ``beats[rank]`` with ``time.monotonic()``, which is system-wide
    on the platforms we run on, so the parent compares it with its own
    clock directly.
    """
    while True:
        try:
            _fault_trip("worker.heartbeat")
            beats[rank] = time.monotonic()
        except Exception:
            # a dead heartbeat is the *signal*, not an error: the
            # supervisor will presume the worker hung and recycle it
            return
        if stop.wait(interval):
            return


def _hung(beats, rank: int, since: float, timeout: float) -> bool:
    """Worker *rank*'s newest heartbeat, or *since* (its task's hand-over
    time) if later, is older than *timeout* seconds."""
    return time.monotonic() - max(beats[rank], since) > timeout


def _reap(proc, grace: float = 0.0) -> None:
    """Join *proc*; kill it if still alive after *grace* seconds."""
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5)


def _tick(cfg: PartitionerConfig) -> float:
    """Polling period of a parent waiting on supervised workers."""
    return max(0.01, min(cfg.heartbeat_interval, 0.1))


def _supervised_worker(rank, task_q, result_q, beats, hb_interval,
                       h, k, single) -> None:
    """One supervised engine worker (child-process main).

    Pulls ``(start_index, seed)`` tasks from its private queue, runs the
    single-start pipeline and posts ``(rank, start, ok, result_or_exc)``.
    A background thread stamps ``beats[rank]``; the worker body calls
    ``engine._run_start`` — the serial backend's body — so fault injection
    and monkeypatching reach it identically.
    """
    from repro.partitioner import engine as _engine

    stop = threading.Event()
    threading.Thread(
        target=_beat_loop, args=(beats, rank, hb_interval, stop), daemon=True
    ).start()
    try:
        while True:
            item = task_q.get()
            if item is None:
                return
            i, seed = item
            try:
                res = _engine._run_start(h, k, single, seed)
            except Exception as exc:
                try:
                    result_q.put((rank, i, False, exc))
                except Exception:  # unpicklable exception: ship a summary
                    result_q.put(
                        (rank, i, False,
                         RuntimeError(f"{type(exc).__name__}: {exc}"))
                    )
            else:
                result_q.put((rank, i, True, res))
    finally:
        stop.set()


class _Slot:
    """Supervisor-side state of one worker rank."""

    __slots__ = ("rank", "proc", "queue", "task", "dispatched_at")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.proc = None
        self.queue = None
        self.task = None  # (start_index, attempt) while one is in flight
        self.dispatched_at = 0.0


def _mp_context():
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context()


def _supervised_starts(h, k, single, seeds, todo, cfg, outcome, store,
                       deadline) -> None:
    """Process backend with heartbeats, kill/respawn and seed re-queueing.

    Workers are forked, so each inherits *h* without a copy (a non-fork
    start method pickles it once per worker spawn).  Liveness travels in
    ``beats``, one ``float64`` per rank in an unnamed shared array
    allocated before the first fork: nothing to name, attach or unlink.
    Worker death or a heartbeat older than ``cfg.heartbeat_timeout``
    (while a start is in flight) kills and respawns the worker and
    re-queues the seed — a re-queue spends the restart budget
    (``n_workers * (max_retries + 1)`` total), not the per-start retry
    budget, because the *task* never reported failure.  A start that does
    report an exception follows the normal retry-with-backoff policy.
    When the restart budget runs out the pool raises
    :class:`WorkerPoolBroken` and the engine falls back to serial.
    """
    rec = get_recorder()
    ctx = _mp_context()
    n_workers = min(cfg.n_workers, len(todo))
    # an OSError here (no shared memory) takes run_starts' serial fallback
    beats = ctx.RawArray("d", n_workers)
    result_q = ctx.Queue()
    slots = [_Slot(r) for r in range(n_workers)]
    restart_budget = cfg.n_workers * (cfg.max_retries + 1)
    # (start_index, attempt, not_before) — retried entries carry a backoff
    # horizon instead of blocking the supervisor in time.sleep
    pending: list = [(i, 0, 0.0) for i in todo]
    tick = _tick(cfg)

    def spawn(slot: _Slot) -> None:
        slot.queue = ctx.Queue()
        slot.proc = ctx.Process(
            target=_supervised_worker,
            args=(slot.rank, slot.queue, result_q, beats,
                  cfg.heartbeat_interval, h, k, single),
        )
        slot.proc.start()
        _LAST_WORKER_PIDS[:] = [
            s.proc.pid for s in slots if s.proc is not None and s.proc.is_alive()
        ]

    def recycle(slot: _Slot, why: str) -> None:
        """Kill a dead/hung worker, re-queue its seed, respawn."""
        nonlocal restart_budget
        if slot.proc is not None:
            _reap(slot.proc)
        if slot.task is not None:
            i, attempt = slot.task
            if i not in outcome.completed:
                pending.insert(0, (i, attempt, time.monotonic()))
            slot.task = None
        if restart_budget <= 0:
            raise WorkerPoolBroken(
                f"supervised worker rank {slot.rank} {why} and the restart "
                f"budget is exhausted"
            )
        restart_budget -= 1
        beats[slot.rank] = 0.0
        spawn(slot)
        rec.add("engine.worker_restarts")

    try:
        for slot in slots:
            spawn(slot)

        while True:
            inflight = any(s.task is not None for s in slots)
            if not pending and not inflight:
                break

            # dispatch ready work to idle live workers
            now = time.monotonic()
            deadline_blocked = (
                deadline is not None
                and deadline.expired()
                and (outcome.completed or outcome.resumed or inflight)
            )
            if not deadline_blocked:
                for slot in slots:
                    if not pending or slot.task is not None:
                        continue
                    if slot.proc is None or not slot.proc.is_alive():
                        continue  # the monitor pass below recycles it
                    ready = next(
                        (idx for idx, (_i, _a, nb) in enumerate(pending)
                         if nb <= now),
                        None,
                    )
                    if ready is None:
                        break
                    i, attempt, _nb = pending.pop(ready)
                    if i in outcome.completed:  # stale re-queue duplicate
                        continue
                    slot.queue.put((i, _fresh_seed(seeds, i)))
                    slot.task = (i, attempt)
                    slot.dispatched_at = now
            elif not inflight:
                # past the deadline with nothing left in flight: the rest
                # of the sweep is abandoned gracefully
                outcome.skipped = sorted(i for i, _a, _nb in pending)
                outcome.degraded_reason = "deadline"
                rec.add("engine.deadline_hits")
                break

            # collect one result (or just wait a tick)
            try:
                rank, i, ok, res = result_q.get(timeout=tick)
            except queue_mod.Empty:
                pass
            else:
                slot = slots[rank]
                if slot.task is not None and slot.task[0] == i:
                    attempt = slot.task[1]
                    slot.task = None
                else:  # result from a recycled rank; attempt is best-effort
                    attempt = 0
                if ok:
                    if i not in outcome.completed:
                        _complete(outcome, store, i, seeds, res)
                else:
                    if attempt >= cfg.max_retries:
                        raise res
                    rec.add("engine.start_retries")
                    outcome.retries[i] = attempt + 1
                    pending.append(
                        (i, attempt + 1,
                         time.monotonic() + backoff_delay(cfg, attempt, salt=i))
                    )

            # monitor: recycle dead or hung workers
            for slot in slots:
                if slot.proc is None:
                    continue
                if not slot.proc.is_alive():
                    if slot.task is not None or pending:
                        recycle(slot, "died")
                    continue
                if slot.task is not None and _hung(
                    beats, slot.rank, slot.dispatched_at, cfg.heartbeat_timeout
                ):
                    recycle(slot, "stopped heartbeating")
    finally:
        for slot in slots:
            if slot.queue is not None:
                try:
                    slot.queue.put(None)
                except Exception:
                    pass
        for slot in slots:
            if slot.proc is not None:
                _reap(slot.proc, grace=2)
        for slot in slots:
            if slot.queue is not None:
                slot.queue.close()
                slot.queue.cancel_join_thread()
        result_q.close()
        result_q.cancel_join_thread()


# ----------------------------------------------------------------------
# one-task supervised children (shipped seed-tree subtrees)
# ----------------------------------------------------------------------
def _one_task_worker(conn, beats, hb_interval, fn, args) -> None:
    """Child main of a :class:`SupervisedTask`: stamp ``beats[0]`` while
    ``fn(*args)`` runs, then send ``(ok, value_or_exc)``."""
    stop = threading.Event()
    threading.Thread(
        target=_beat_loop, args=(beats, 0, hb_interval, stop), daemon=True
    ).start()
    try:
        out = (True, fn(*args))
    except Exception as exc:
        out = (False, exc)
    stop.set()
    conn.send(out)  # an unpicklable payload kills the child: EOF upstream


class SupervisedTask:
    """``fn(*args)`` in a child forked by the constructor — so it inherits
    *args* without a pickle — and supervised like an engine worker.

    :meth:`result` polls for the child's answer.  A child that dies
    without one, or is :func:`_hung` past ``cfg.heartbeat_timeout``, is
    killed and reaped, and ``result()`` raises.  :meth:`cancel` kills and
    reaps a child that will not be collected.  Either calls *on_close*
    once.
    """

    def __init__(self, cfg: PartitionerConfig, fn, args: tuple,
                 on_close) -> None:
        ctx = _mp_context()
        self._cfg, self._on_close = cfg, on_close
        self._beats = ctx.RawArray("d", 1)  # made before the fork
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_one_task_worker,
            args=(child_conn, self._beats, cfg.heartbeat_interval, fn, args),
        )
        try:
            self._proc.start()
        except BaseException:
            self._conn.close()
            raise
        finally:
            child_conn.close()  # so the child's death reads as EOF here
        self._forked_at = time.monotonic()

    def result(self):
        """The child's return value; re-raises its exception."""
        try:
            while True:
                # sampled before the wait: a child already dead by then
                # has put all it ever will into the pipe
                alive = self._proc.is_alive()
                if self._conn.poll(_tick(self._cfg)):
                    ok, value = self._conn.recv()  # EOFError: died silently
                    break
                if not alive or _hung(self._beats, 0, self._forked_at,
                                      self._cfg.heartbeat_timeout):
                    raise RuntimeError("subtree child died or hung")
        finally:
            self.cancel()
        if not ok:
            raise value
        return value

    def cancel(self) -> None:
        """Kill and reap the child unless already done (idempotent)."""
        if not self._conn.closed:
            _reap(self._proc)
            self._conn.close()
            self._on_close(self)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def run_starts(
    h: Hypergraph,
    k: int,
    single: PartitionerConfig,
    seeds: list,
    cfg: PartitionerConfig,
    backend: str,
    fingerprint: str | None = None,
) -> StartsOutcome:
    """Execute the engine's starts resiliently on *backend*.

    Resumes from ``cfg.checkpoint_path`` when it records this sweep,
    applies the retry policy at every level, honours the deadline budget,
    and degrades from the supervised process backend to in-process
    serial: only ``OSError`` / ``RuntimeError`` / ``ImportError`` trigger
    the fallback; anything else is a real bug and propagates.
    """
    rec = get_recorder()
    store = None
    if cfg.checkpoint_path and fingerprint is not None:
        store = CheckpointStore.open(
            cfg.checkpoint_path, fingerprint, cfg.epsilon, len(seeds), k,
            h.num_vertices,
        )
    outcome = StartsOutcome()
    if store is not None and store.completed:
        outcome.resumed = dict(store.completed)
        outcome.resumed_best = store.best_result()
        rec.add("engine.starts_resumed", len(outcome.resumed))
    todo = [i for i in range(len(seeds)) if i not in outcome.resumed]
    if not todo:
        return outcome
    deadline = Deadline.from_config(cfg)

    if backend == "serial":
        _serial_starts(h, k, single, seeds, todo, cfg, outcome, store,
                       deadline, trip=True)
        return outcome

    try:
        _supervised_starts(h, k, single, seeds, todo, cfg, outcome, store,
                           deadline)
        return outcome
    except (OSError, RuntimeError, ImportError):
        # restricted environments can refuse processes (no fork / sem);
        # retries are exhausted; degrade rather than fail
        rec.add("engine.backend_fallbacks")
        outcome.reset_fresh()
    _serial_starts(h, k, single, seeds, todo, cfg, outcome, store,
                   deadline, trip=False)
    return outcome
