"""Bucket-list priority structure for Fiduccia–Mattheyses refinement.

The classic FM data structure: one doubly-linked list per integer gain
value, plus a moving max-gain pointer.  All operations the refinement inner
loop needs are O(1) except :meth:`GainBucket.best`, whose amortized cost is
bounded by the gain-range walk (the standard FM argument).

Weight-capped selection (:meth:`GainBucket.best_capped`) adds one exact
memo on top: a walk that finds nothing has seen every stored vertex, so it
records their minimum weight, and later calls whose cap is below that
minimum return ``None`` without walking.  Only inserts can lower the
minimum, so only :meth:`~GainBucket.insert` and
:meth:`~GainBucket.bulk_insert` invalidate it; removals and relinks keep
it valid.  Without the memo, FM re-walks a side where nothing fits on
every move of a pass.

Plain Python lists are used instead of numpy arrays deliberately: the inner
loop performs millions of single-element reads/writes, where list indexing
is several times faster than numpy scalar indexing (see the repository's
profiling notes in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["GainBucket"]

#: ``GainBucket.wfloor`` while no empty-handed walk is on record: no cap is below it
_NO_FLOOR = float("-inf")
#: start of a walk's running minimum: every weight is below it
_NO_CEIL = float("inf")


class GainBucket:
    """Doubly-linked bucket lists over the gain range ``[-max_gain, max_gain]``.

    Vertices are identified by integer ids in ``[0, n)``.  A vertex is in at
    most one bucket at a time.
    """

    __slots__ = (
        "offset", "heads", "nxt", "prv", "gain", "inside", "maxptr", "count", "wfloor",
    )

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
        #: lower bound on the weight of every stored vertex, set by a
        #: :meth:`best_capped` walk that returned ``None``
        self.wfloor = _NO_FLOOR

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
        self.wfloor = _NO_FLOOR
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

    def move_to(self, v: int, g: int) -> None:
        """Relink stored vertex *v* into the bucket for gain *g*.

        Equivalent to ``remove(v)`` + ``insert(v, g)`` (new head of the
        target bucket) with the call overhead and revalidation stripped —
        this is the single hottest operation of an FM pass.  *v* must be
        stored and *g* in range; the refinement loop guarantees both.
        """
        nxt, prv, heads = self.nxt, self.prv, self.heads
        nx, pv = nxt[v], prv[v]
        if pv != -1:
            nxt[pv] = nx
        else:
            heads[self.gain[v] + self.offset] = nx
        if nx != -1:
            prv[nx] = pv
        b = g + self.offset
        head = heads[b]
        nxt[v] = head
        prv[v] = -1
        if head != -1:
            prv[head] = v
        heads[b] = v
        self.gain[v] = g
        if b > self.maxptr:
            self.maxptr = b

    def bulk_insert(self, vs: np.ndarray, gains: np.ndarray) -> None:
        """Insert vertices *vs* (insertion order) with their *gains* at once.

        Produces the exact linked-list state the equivalent sequence of
        :meth:`insert` calls would: within each bucket, later-inserted
        vertices sit closer to the head (LIFO).  None of *vs* may already
        be stored.
        """
        m = len(vs)
        if m == 0:
            return
        b = np.asarray(gains, dtype=np.int64) + self.offset
        if int(b.min()) < 0 or int(b.max()) >= len(self.heads):
            raise ValueError(f"gain outside bucket range ±{self.offset}")
        # bucket-major, reverse insertion order within a bucket: walking the
        # sorted sequence then links head -> tail of every bucket chain
        ordr = np.lexsort((-np.arange(m), b))
        sv = np.asarray(vs)[ordr].tolist()
        sb = b[ordr].tolist()
        heads, nxt, prv = self.heads, self.nxt, self.prv
        gain, inside = self.gain, self.inside
        off = self.offset
        prev_b = -1
        prev_v = -1
        for i in range(m):
            v = sv[i]
            if inside[v]:
                raise ValueError(f"vertex {v} already in bucket")
            bb = sb[i]
            if bb != prev_b:
                if prev_v != -1:
                    nxt[prev_v] = -1
                heads[bb] = v
                prv[v] = -1
            else:
                nxt[prev_v] = v
                prv[v] = prev_v
            gain[v] = bb - off
            inside[v] = True
            prev_b = bb
            prev_v = v
        nxt[prev_v] = -1
        self.count += m
        self.wfloor = _NO_FLOOR
        mb = int(b.max())
        if mb > self.maxptr:
            self.maxptr = mb

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

    def best_capped(self, w: list[int], cap: int) -> int | None:
        """:meth:`best` specialized to the feasibility test ``w[v] <= cap``.

        Same walk and same result as ``best(lambda v: w[v] <= cap)`` but
        without a Python call per candidate — the dominant selection path
        when neither side is overweight.

        A walk that returns ``None`` records the minimum weight it saw in
        :attr:`wfloor`; while no vertex is inserted, a later call with
        ``cap < wfloor`` returns ``None`` at once.  The memo is exact as
        long as every call passes the same, unchanging *w* (FM and GHG
        pass the hypergraph's vertex weights).
        """
        if self.count == 0 or cap < self.wfloor:
            return None
        self._settle_maxptr()
        heads, nxt = self.heads, self.nxt
        lo = _NO_CEIL
        for b in range(self.maxptr, -1, -1):
            v = heads[b]
            while v != -1:
                wv = w[v]
                if wv <= cap:
                    return v
                if wv < lo:
                    lo = wv
                v = nxt[v]
        self.wfloor = lo
        return None

    def pop_best(self, feasible: Callable[[int], bool] | None = None) -> int | None:
        """Like :meth:`best` but also removes the returned vertex."""
        v = self.best(feasible)
        if v is not None:
            self.remove(v)
        return v
