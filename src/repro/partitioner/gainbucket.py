"""Bucket-list priority structure for Fiduccia–Mattheyses refinement.

The classic FM data structure: one doubly-linked list per integer gain
value, plus a moving max-gain pointer.  All operations the refinement inner
loop needs are O(1) except :meth:`GainBucket.best`, whose amortized cost is
bounded by the gain-range walk (the standard FM argument).

The graph partitioner's FM and growing use it.  Hypergraph FM and GHG use
the flat two-sided store :class:`repro.partitioner.refine.FMBuckets`,
which shares its gain list with the move engine and relinks inline.

Plain Python lists are used instead of numpy arrays deliberately: the inner
loop performs millions of single-element reads/writes, where list indexing
is several times faster than numpy scalar indexing (see the repository's
profiling notes in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["GainBucket"]


class GainBucket:
    """Doubly-linked bucket lists over the gain range ``[-max_gain, max_gain]``.

    Vertices are identified by integer ids in ``[0, n)``.  A vertex is in at
    most one bucket at a time.
    """

    __slots__ = ("offset", "heads", "nxt", "prv", "gain", "inside", "maxptr", "count")

    def __init__(self, n: int, max_gain: int) -> None:
        if max_gain < 0:
            raise ValueError("max_gain must be non-negative")
        self.offset = max_gain
        nbuckets = 2 * max_gain + 1
        self.heads = [-1] * nbuckets
        self.nxt = [-1] * n
        self.prv = [-1] * n
        self.gain = [0] * n
        self.inside = [False] * n
        self.maxptr = -1  # index into heads of the highest non-empty bucket
        self.count = 0

    # -- primitive ops -------------------------------------------------
    def insert(self, v: int, gain: int) -> None:
        """Insert vertex *v* with *gain*; *v* must not already be inside."""
        b = gain + self.offset
        if b < 0 or b >= len(self.heads):
            raise ValueError(f"gain {gain} outside bucket range ±{self.offset}")
        if self.inside[v]:
            raise ValueError(f"vertex {v} already in bucket")
        head = self.heads[b]
        self.nxt[v] = head
        self.prv[v] = -1
        if head != -1:
            self.prv[head] = v
        self.heads[b] = v
        self.gain[v] = gain
        self.inside[v] = True
        self.count += 1
        if b > self.maxptr:
            self.maxptr = b

    def remove(self, v: int) -> None:
        """Remove vertex *v*; no-op protection is the caller's job."""
        if not self.inside[v]:
            raise ValueError(f"vertex {v} not in bucket")
        nxt, prv = self.nxt[v], self.prv[v]
        if prv != -1:
            self.nxt[prv] = nxt
        else:
            self.heads[self.gain[v] + self.offset] = nxt
        if nxt != -1:
            self.prv[nxt] = prv
        self.inside[v] = False
        self.count -= 1

    def contains(self, v: int) -> bool:
        """Whether *v* is currently stored."""
        return self.inside[v]

    def adjust(self, v: int, delta: int) -> None:
        """Change the gain of stored vertex *v* by *delta* (re-link)."""
        g = self.gain[v] + delta
        self.remove(v)
        self.insert(v, g)

    def __len__(self) -> int:
        return self.count

    # -- selection -------------------------------------------------------
    def _settle_maxptr(self) -> None:
        heads = self.heads
        m = self.maxptr
        while m >= 0 and heads[m] == -1:
            m -= 1
        self.maxptr = m

    def max_gain(self) -> int | None:
        """Highest stored gain, or ``None`` when empty."""
        if self.count == 0:
            return None
        self._settle_maxptr()
        return self.maxptr - self.offset

    def best(self, feasible: Callable[[int], bool] | None = None) -> int | None:
        """Highest-gain vertex satisfying *feasible* (or any, if ``None``).

        Walks buckets downward from the max pointer; within a bucket walks
        the list in insertion order.  Returns ``None`` when nothing
        qualifies.  The vertex is *not* removed.
        """
        if self.count == 0:
            return None
        self._settle_maxptr()
        heads, nxt = self.heads, self.nxt
        for b in range(self.maxptr, -1, -1):
            v = heads[b]
            while v != -1:
                if feasible is None or feasible(v):
                    return v
                v = nxt[v]
        return None

    def pop_best(self, feasible: Callable[[int], bool] | None = None) -> int | None:
        """Like :meth:`best` but also removes the returned vertex."""
        v = self.best(feasible)
        if v is not None:
            self.remove(v)
        return v
