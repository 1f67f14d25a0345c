"""Shared-memory heartbeat board of the supervised engine workers.

The multi-start engine's process backend
(:mod:`repro.partitioner.resilience`) needs a liveness channel that costs
no syscalls on the hot path: every worker stamps one ``float64`` slot of
a small :class:`multiprocessing.shared_memory.SharedMemory` segment, and
the supervisor reads the slots to find dead or hung workers.  The
hypergraph itself never travels through shared memory — workers are
forked and inherit it.

Lifecycle contract
------------------
The creating side owns the segment: :meth:`HeartbeatBoard.close` both
closes and unlinks it and is idempotent, so callers can (and must) put it
in a ``finally`` — the engine guarantees unlink even when a start crashes.
Workers attach with tracking disabled (attaching is not owning; letting the
``resource_tracker`` register the attachment makes every worker exit try to
unlink the segment again, which is exactly the double-free the tracker is
meant to prevent).  On Linux an unlinked segment stays mapped until the
last attached process exits, so the owner may unlink while workers still
run.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = ["HeartbeatBoard"]


def _attach(name: str):
    """Attach to an existing segment without registering ownership."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13 spells it explicitly
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Older interpreters register attachments with the resource tracker as
    # if they were creations (bpo-39959): every attaching process would
    # then try to unlink the segment on exit.  Suppress the registration
    # for the duration of the attach — the creating side stays the sole
    # registered owner.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class HeartbeatBoard:
    """One ``float64`` monotonic-clock timestamp per worker, in shared memory.

    The supervision layer of :mod:`repro.partitioner.resilience` uses this
    as its liveness channel: each supervised worker's heartbeat thread
    stamps its slot every ``heartbeat_interval`` seconds and the parent
    reads the slots without any syscall traffic — ``CLOCK_MONOTONIC`` is
    system-wide on the platforms we run on, so parent and child timestamps
    are directly comparable.  The creating side closes *and* unlinks,
    workers attach with tracking disabled and only close.
    """

    def __init__(self, shm, n_slots: int, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self.name = shm.name
        self.slots = np.ndarray((n_slots,), dtype=np.float64, buffer=shm.buf)

    @classmethod
    def create(cls, n_slots: int) -> "HeartbeatBoard":
        """Allocate a zeroed board for *n_slots* workers (owner side).

        Raises whatever :class:`multiprocessing.shared_memory.SharedMemory`
        raises when shared memory is unavailable (injectable at the
        ``shm.create`` fault site); the supervisor then runs with death
        detection only.
        """
        from multiprocessing import shared_memory

        _fault_trip("shm.create")
        shm = shared_memory.SharedMemory(create=True, size=8 * max(n_slots, 1))
        board = cls(shm, n_slots, owner=True)
        board.slots[:] = 0.0
        return board

    @classmethod
    def attach(cls, name: str, n_slots: int) -> "HeartbeatBoard":
        """Map an existing board without taking ownership (worker side)."""
        return cls(_attach(name), n_slots, owner=False)

    def beat(self, slot: int) -> None:
        """Stamp *slot* with the current monotonic time."""
        import time

        self.slots[slot] = time.monotonic()

    def last_beat(self, slot: int) -> float:
        """Newest stamp of *slot* (0.0 if the worker never beat)."""
        return float(self.slots[slot])

    def close(self) -> None:
        """Release the mapping; the owner also unlinks (idempotent).

        An ``OSError`` from the owner's unlink (injectable at the
        ``shm.unlink`` fault site) must not fail the partitioning call
        that already succeeded: it is absorbed and counted as
        ``shm.unlink_errors`` telemetry.
        """
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self.slots = None
        try:
            shm.close()
        finally:
            if self._owner:
                try:
                    _fault_trip("shm.unlink")
                    shm.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    get_recorder().add("shm.unlink_errors")

    def __enter__(self) -> "HeartbeatBoard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net; close() is the API
        try:
            self.close()
        except Exception:
            pass
