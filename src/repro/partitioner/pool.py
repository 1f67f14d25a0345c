"""Shared worker budget and subtree scheduler for tree-parallel recursion.

After every bisection the two :func:`~repro.partitioner.recursive.extract_side`
subproblems are fully independent (cut-net splitting severs all coupling),
so the recursion tree is an embarrassingly parallel task DAG.  This module
provides the two pieces that exploit it without ever changing the result:

* :class:`WorkerBudget` — a non-blocking slot counter.  One budget of
  ``cfg.n_workers`` slots is shared by everything a partitioning call does
  concurrently; the multi-start engine divides it between starts and hands
  each start its share for subtree fan-out, so starts × subtrees can never
  oversubscribe the machine.
* :class:`TreeScheduler` — fork-one/walk-one scheduling: at each recursion
  node the caller offers one side and walks the other itself.  An
  accepted offer forks the side at once as a supervised child
  (:class:`~repro.partitioner.resilience.SupervisedTask`); a declined one
  (no free slot, fewer than :data:`_SPAWN_MIN_VERTICES` vertices, at
  least :data:`_SPAWN_DEPTH` levels deep, or a failed fork) runs inline.
  Because seeds come from the per-node seed tree, *where* a subtree runs
  is invisible in the output — scheduling is pure wall-clock policy.
"""

from __future__ import annotations

import threading

from repro.partitioner.config import PartitionerConfig, resolve_backend
from repro.partitioner.resilience import SupervisedTask
from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = ["WorkerBudget", "TreeScheduler"]

#: the fan-out frontier: only nodes fewer than this many levels deep offer
#: a subtree (at most ``2**_SPAWN_DEPTH`` concurrent subtrees)
_SPAWN_DEPTH = 2
#: a subtree ships only when its sub-hypergraph has at least this many
#: vertices; below it, task overhead dominates
_SPAWN_MIN_VERTICES = 4096


class WorkerBudget:
    """Fixed pool of worker slots with non-blocking acquisition.

    ``try_acquire`` never blocks: a caller that cannot get a slot does the
    work inline instead of queueing — queueing would serialize the very
    recursion we are trying to parallelize.
    """

    def __init__(self, slots: int) -> None:
        self.slots = max(0, int(slots))
        self._sem = threading.Semaphore(self.slots)

    def try_acquire(self) -> bool:
        """Take one slot if any is free; never blocks."""
        return self.slots > 0 and self._sem.acquire(blocking=False)

    def release(self) -> None:
        self._sem.release()


class TreeScheduler:
    """Forks recursion subtrees as supervised children; inline otherwise.

    A call makes at most ``2**_SPAWN_DEPTH - 1`` offers.  Use it as a
    context manager: leaving it (normally or by an exception) kills and
    reaps every child not collected yet.
    """

    def __init__(self, cfg: PartitionerConfig):
        self.cfg = cfg
        self.backend = resolve_backend(cfg) if cfg.tree_parallel else "serial"
        # the walking process itself works a subtree, so only n_workers - 1
        # children may be out at once
        self.budget = WorkerBudget(cfg.n_workers - 1)
        self._live: set[SupervisedTask] = set()

    def offer(self, depth: int, num_vertices: int, fn, /, *args):
        """Fork ``fn(*args)`` as a :class:`SupervisedTask` for the caller
        to collect, or decline with ``None`` (see the module docstring);
        the caller then runs the subtree inline — same bits either way."""
        if self.backend == "serial":
            return None
        if depth >= _SPAWN_DEPTH or num_vertices < _SPAWN_MIN_VERTICES:
            return None
        if not self.budget.try_acquire():
            return None
        try:
            _fault_trip("pool.submit")
            task = SupervisedTask(self.cfg, fn, args, on_close=self._closed)
        except (OSError, RuntimeError):
            # declines this one offer; the next one forks again
            self.budget.release()
            get_recorder().add("tree.task_failures")
            return None
        self._live.add(task)
        get_recorder().add("tree.tasks_spawned")
        return task

    def _closed(self, task: SupervisedTask) -> None:
        self._live.discard(task)
        self.budget.release()

    def shutdown(self) -> None:
        """Kill and reap every child that was never collected (idempotent)."""
        for task in list(self._live):
            task.cancel()

    def __enter__(self) -> "TreeScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
