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
  node the caller offers one side to the pool and walks the other side
  itself.  When no slot is free (or the subproblem has fewer than
  :data:`_SPAWN_MIN_VERTICES` vertices, or the node is
  :data:`_SPAWN_DEPTH` or more levels deep) the side simply runs inline.
  Because seeds come from the per-node seed tree, *where* a subtree runs
  is invisible in the output — scheduling is pure wall-clock policy.

The scheduler degrades gracefully: if the process pool cannot be created
or a submitted task dies, the subtree is recomputed inline at once and
the run completes serially (mirroring the engine's backend fallback
chain).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro.partitioner.config import PartitionerConfig, resolve_backend
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
    """Offers recursion subtrees to a bounded process pool; inline otherwise.

    The executor is created lazily on the first accepted offer, so a call
    whose subproblems never clear :data:`_SPAWN_MIN_VERTICES` pays no pool
    startup cost at all.  ``shutdown`` must run in a ``finally`` — the
    driver owns that.
    """

    def __init__(self, cfg: PartitionerConfig):
        self.backend = resolve_backend(cfg) if cfg.tree_parallel else "serial"
        # the walking thread itself works a subtree, so only n_workers - 1
        # extra tasks may be in flight at once
        self.budget = WorkerBudget(cfg.n_workers - 1)
        self._executor = None
        self._lock = threading.Lock()
        self._broken = False

    # ------------------------------------------------------------------
    def _ensure_executor(self):
        with self._lock:
            if self._executor is None and not self._broken:
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=max(self.budget.slots, 1)
                    )
                except (OSError, RuntimeError, ImportError):
                    # restricted environments can refuse pools; run inline
                    self._broken = True
                    get_recorder().add("tree.pool_fallbacks")
            return self._executor

    def offer(self, depth: int, num_vertices: int, fn, /, *args) -> Future | None:
        """Submit ``fn(*args)`` as a subtree task, or decline.

        Declines (returns ``None``) when the node is past the fan-out
        frontier, the subproblem is too small to be worth shipping, no
        budget slot is free, or the pool is broken.  The caller then runs
        the subtree inline — same bits either way.
        """
        if self.backend == "serial" or self._broken:
            return None
        if depth >= _SPAWN_DEPTH or num_vertices < _SPAWN_MIN_VERTICES:
            return None
        if not self.budget.try_acquire():
            return None
        ex = self._ensure_executor()
        if ex is None:
            self.budget.release()
            return None
        try:
            _fault_trip("pool.submit")
            fut = ex.submit(fn, *args)
        except (OSError, RuntimeError):
            self.budget.release()
            self._broken = True
            get_recorder().add("tree.pool_fallbacks")
            return None
        fut.add_done_callback(lambda _f: self.budget.release())
        get_recorder().add("tree.tasks_spawned")
        return fut

    def shutdown(self) -> None:
        """Tear the executor down (idempotent)."""
        with self._lock:
            ex, self._executor = self._executor, None
        if ex is not None:
            ex.shutdown(wait=True)

    def __enter__(self) -> "TreeScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
