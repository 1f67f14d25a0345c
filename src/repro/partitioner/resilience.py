"""Resilient execution runtime for the multi-start engine.

The paper's evaluation is a long fan-out campaign — 14 matrices x three K
values x three models, each best-of-N — exactly the shape of run where one
hung worker or OOM-killed process used to throw away hours of work.  This
module is the recovery layer the fault-injection suite (PR 4) exists to
exercise:

one failure rule
    A failed engine start, on either backend, is recomputed once, at
    once, in the engine's process with the fault-free body
    (``partition_hypergraph`` on a fresh copy of its seed), counted in
    ``engine.start_failures`` and traced as an ``engine.start`` span with
    ``recomputed=True``.  The recompute re-derives the start's original
    seed, so it is invisible in the output — the partition stays
    bit-identical to a failure-free run.  If the recompute raises too,
    that exception propagates.
child supervision
    On the process backend every start is a one-task supervised child
    (:class:`SupervisedTask`), and so is every shipped seed-tree subtree.
    The child is forked, so it inherits its inputs without a copy, and it
    stamps a heartbeat slot of an unnamed shared array, allocated before
    the fork, from a background thread.  The parent kills and reaps a
    child that raises, dies or stops heartbeating and recomputes its work
    inline under the rule above (``tree.task_failures`` counts the
    subtrees); a start whose fork is refused is recomputed the same way.
    A child whose parent dies exits on its next heartbeat tick instead of
    living on as an orphan.
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
import threading
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_any

import numpy as np

from repro._util import reap
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder
from repro.verify.faults import advance as _fault_advance
from repro.verify.faults import trip as _fault_trip

__all__ = [
    "Deadline",
    "StartStat",
    "CheckpointStore",
    "StartsOutcome",
    "SupervisedTask",
    "sweep_fingerprint",
    "run_starts",
]

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
class StartStat:
    """Outcome of one engine start, fresh or recovered from a checkpoint."""

    #: start index in [0, n_starts)
    start: int
    #: derived integer seed the start ran with; ``-1`` for start 0, which
    #: replays the engine seed's own RNG stream (see
    #: :func:`repro.partitioner.engine.partition_multistart`)
    seed: int
    #: connectivity-minus-one cutsize the start achieved
    cutsize: int
    #: achieved imbalance ratio
    imbalance: float
    #: wall-clock seconds of the start
    runtime: float


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
         "runtime": ...}
        {"kind": "best", "start": 2, "cutsize": ..., "cutsize_cutnet": ...,
         "imbalance": ..., "runtime": ..., "part_b64": "...", "dtype": "int64"}

    Every :meth:`record` rewrites the whole file to a sibling ``.tmp``
    and ``os.replace``\\ s it into place, so the file on disk is always a
    complete, parseable snapshot — a kill at any instant loses at most
    the start that was in flight.  A write failure (injectable at the
    ``checkpoint.write`` fault site) must never fail the partitioning run
    that produced the result: it is absorbed and counted as
    ``checkpoint.write_errors``.  The loader ignores keys it does not
    read, such as the ``retries`` count that older files carry.
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
        #: start index -> StartStat for every recorded completion
        self.completed: dict[int, StartStat] = {}
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
                    self.completed[start] = StartStat(
                        start=start,
                        seed=int(rec["seed"]),
                        cutsize=int(rec["cutsize"]),
                        imbalance=float(rec["imbalance"]),
                        runtime=float(rec["runtime"]),
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

    def record(self, start: int, seed: int, res) -> None:
        """Register one completed start and persist the new snapshot."""
        self.completed[start] = StartStat(
            start=start,
            seed=seed,
            cutsize=int(res.cutsize),
            imbalance=float(res.imbalance),
            runtime=float(res.runtime),
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
             "runtime": s.runtime}
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
    #: :class:`StartStat` of each start a checkpoint already had, by index
    resumed: dict = field(default_factory=dict)
    #: ``(start_index, PartitionResult)`` best among the resumed starts
    resumed_best: tuple | None = None
    #: why the run is degraded (``"deadline"``), or None for a clean run
    degraded_reason: str | None = None
    #: start indices that never ran (deadline hit)
    skipped: list = field(default_factory=list)


def _fresh_seed(seeds: list, i: int):
    """The seed start *i* runs with — always re-derived from the pristine
    entry, so a recompute replays the exact stream of the first attempt."""
    s = seeds[i]
    return copy.deepcopy(s) if isinstance(s, np.random.Generator) else s


def _seed_label(seeds: list, i: int) -> int:
    """Start *i*'s integer seed; ``-1`` for an engine-RNG replay."""
    return seeds[i] if isinstance(seeds[i], int) else -1


def _complete(outcome: StartsOutcome, store: CheckpointStore | None,
              i: int, seeds: list, res) -> None:
    outcome.completed[i] = res
    if store is not None:
        store.record(i, _seed_label(seeds, i), res)


def _recompute(h, k, single, seeds, i, outcome, store) -> None:
    """Recompute failed start *i* in this process with the fault-free
    body on a fresh copy of its seed; its exception, if any, propagates."""
    from repro.partitioner.driver import partition_hypergraph

    rec = get_recorder()
    rec.add("engine.start_failures")
    with rec.span("engine.start", start=i, seed=_seed_label(seeds, i),
                  recomputed=True) as sp:
        res = partition_hypergraph(h, k, single, _fresh_seed(seeds, i))
        sp.set(cutsize=res.cutsize)
    _complete(outcome, store, i, seeds, res)


def _past_deadline(deadline: Deadline | None, outcome: StartsOutcome,
                   inflight: bool) -> bool:
    """No start may launch: the deadline expired and some start has
    completed, been resumed or is in flight (so at least one always runs)."""
    return (
        deadline is not None
        and deadline.expired()
        and bool(outcome.completed or outcome.resumed or inflight)
    )


def _skip_rest(outcome: StartsOutcome, rest: list) -> None:
    outcome.skipped = list(rest)
    outcome.degraded_reason = "deadline"
    get_recorder().add("engine.deadline_hits")


# ----------------------------------------------------------------------
# serial backend
# ----------------------------------------------------------------------
def _serial_starts(h, k, single, seeds, todo, cfg, outcome, store,
                   deadline) -> None:
    """Run *todo* starts in-process, each behind the ``engine.start``
    fault site; a start that raises is recomputed once."""
    rec = get_recorder()
    from repro.partitioner import engine as _engine

    for pos, i in enumerate(todo):
        if _past_deadline(deadline, outcome, False):
            _skip_rest(outcome, todo[pos:])
            break
        try:
            with rec.span("engine.start", start=i,
                          seed=_seed_label(seeds, i)) as sp:
                res = _engine._run_start(h, k, single, _fresh_seed(seeds, i))
                sp.set(cutsize=res.cutsize)
        except Exception:
            _recompute(h, k, single, seeds, i, outcome, store)
        else:
            _complete(outcome, store, i, seeds, res)


# ----------------------------------------------------------------------
# one-task supervised children
# ----------------------------------------------------------------------
def _beat_loop(beats, rank: int, interval: float, stop: threading.Event,
               parent: int) -> None:
    """Child-side heartbeat writer (daemon thread).

    Stamps ``beats[rank]`` with ``time.monotonic()``, which is system-wide
    on the platforms we run on, so the parent compares it with its own
    clock directly.  Ends the whole process once its parent, whose pid
    *parent* was recorded before the fork, is gone: nothing would ever
    collect its answer or kill it, so it would live on as an orphan.
    """
    while True:
        if os.getppid() != parent:
            os._exit(1)
        try:
            _fault_trip("worker.heartbeat")
            beats[rank] = time.monotonic()
        except Exception:
            # a dead heartbeat is the *signal*, not an error: the
            # parent will presume the child hung and kill it
            return
        if stop.wait(interval):
            return


def _hung(beats, rank: int, since: float, timeout: float) -> bool:
    """Slot *rank*'s newest heartbeat, or *since* (its task's hand-over
    time) if later, is older than *timeout* seconds."""
    return time.monotonic() - max(beats[rank], since) > timeout


def _tick(cfg: PartitionerConfig) -> float:
    """Polling period of a parent waiting on supervised children."""
    return max(0.01, min(cfg.heartbeat_interval, 0.1))


def _mp_context():
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context()


def _one_task_worker(conn, beats, hb_interval, parent, fn, args) -> None:
    """Child main of a :class:`SupervisedTask`: stamp ``beats[0]`` while
    ``fn(*args)`` runs, then send ``(ok, value_or_exc)``."""
    stop = threading.Event()
    threading.Thread(
        target=_beat_loop, args=(beats, 0, hb_interval, stop, parent),
        daemon=True,
    ).start()
    try:
        out = (True, fn(*args))
    except Exception as exc:
        out = (False, exc)
    stop.set()
    conn.send(out)  # an unpicklable payload kills the child: EOF upstream


class SupervisedTask:
    """``fn(*args)`` in a child forked by the constructor — so it inherits
    *args* without a pickle — that stamps a heartbeat while it works.

    :meth:`result` polls for the child's answer.  A child that dies
    without one, or is :func:`_hung` past ``cfg.heartbeat_timeout``, is
    killed and reaped, and ``result()`` raises.  :meth:`cancel` kills and
    reaps a child that will not be collected.  Either calls *on_close*
    once.  A task has a :meth:`fileno`, so a parent running several
    collects them with one :func:`multiprocessing.connection.wait` and
    :meth:`answer`.
    """

    def __init__(self, cfg: PartitionerConfig, fn, args: tuple,
                 on_close) -> None:
        ctx = _mp_context()
        self._cfg, self._on_close = cfg, on_close
        self._beats = ctx.RawArray("d", 1)  # made before the fork
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_one_task_worker,
            args=(child_conn, self._beats, cfg.heartbeat_interval,
                  os.getpid(), fn, args),
        )
        try:
            self._proc.start()
        except BaseException:
            self._conn.close()
            raise
        finally:
            child_conn.close()  # so the child's death reads as EOF here
        self._forked_at = time.monotonic()

    def fileno(self) -> int:
        """The answer pipe's descriptor: readable once the child answered
        or died."""
        return self._conn.fileno()

    def answer(self):
        """The child's ``(ok, value_or_exc)`` answer, or ``None`` while it
        works.  Raises when the child died without answering or stopped
        heartbeating."""
        # sampled before the poll: a child already dead by then has put
        # all it ever will into the pipe
        alive = self._proc.is_alive()
        if self._conn.poll():
            return self._conn.recv()  # EOFError: died silently
        if not alive or _hung(self._beats, 0, self._forked_at,
                              self._cfg.heartbeat_timeout):
            raise RuntimeError("supervised child died or hung")
        return None

    def result(self):
        """The child's return value; re-raises its exception."""
        try:
            out = None
            while out is None:
                self._conn.poll(_tick(self._cfg))  # wait up to one tick
                out = self.answer()
        finally:
            self.cancel()
        ok, value = out
        if not ok:
            raise value
        return value

    def cancel(self) -> None:
        """Kill and reap the child unless already done (idempotent)."""
        if not self._conn.closed:
            reap(self._proc)
            self._conn.close()
            self._on_close(self)


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
def _process_starts(h, k, single, seeds, todo, cfg, outcome, store,
                    deadline) -> None:
    """Run *todo* starts as one-task supervised children.

    At most ``cfg.n_workers`` children are out at once; each tick collects
    them with one wait over their pipes.  A start fails when its fork (or
    its heartbeat array) is refused, or its child raises, dies or stops
    heartbeating.  The child is killed and reaped, and the start is
    recomputed inline (:func:`_recompute`), so the bits never move.
    """
    from repro.partitioner import engine as _engine

    pending = list(todo)
    # child -> its start index; a child's cancel() drops it (on_close)
    live: dict[SupervisedTask, int] = {}
    try:
        while pending or live:
            while (pending and len(live) < cfg.n_workers
                   and not _past_deadline(deadline, outcome, bool(live))):
                i = pending.pop(0)
                try:
                    task = SupervisedTask(
                        cfg, _engine._run_start,
                        (h, k, single, _fresh_seed(seeds, i)),
                        on_close=live.pop,
                    )
                except OSError:
                    task = None
                # the child inherited the hits counted so far: count its
                # start here, so engine.start hit N is the sweep's N-th start
                _fault_advance("engine.start")
                if task is None:
                    _recompute(h, k, single, seeds, i, outcome, store)
                else:
                    live[task] = i
            if not live:
                if pending:  # past the deadline with nothing in flight
                    _skip_rest(outcome, pending)
                break
            _wait_any(list(live), timeout=_tick(cfg))
            for task, i in list(live.items()):
                try:
                    out = task.answer()
                except Exception:  # died, hung or sent an unreadable answer
                    out = (False, None)
                if out is None:
                    continue
                task.cancel()
                ok, res = out
                if ok:
                    _complete(outcome, store, i, seeds, res)
                else:
                    _recompute(h, k, single, seeds, i, outcome, store)
    finally:
        for task in list(live):
            task.cancel()


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

    Resumes from ``cfg.checkpoint_path`` when it records this sweep and
    honours the deadline budget.  On both backends a failed start is
    recomputed once inline.
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
    if todo:
        run = _serial_starts if backend == "serial" else _process_starts
        run(h, k, single, seeds, todo, cfg, outcome, store,
            Deadline.from_config(cfg))
    return outcome
