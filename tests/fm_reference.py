"""Reference FM pass and GHG: the test oracle for ``refine`` and ``initial``.

This is the two-bucket formulation the flat move kernel replaced: one
:class:`~tests.graph_reference.GainBucket` per side, each with its
own gain copy, and one ``_bump`` call per touched pin.  It uses only the
bucket's plain operations (``insert``, ``remove``, ``adjust``, ``best``):
one ``insert`` per vertex in seeding order builds the same LIFO chains as
a bulk fill, and ``best(lambda v: w[v] <= cap)`` is the capped walk
without its min-weight memo.  Production code must match it bit for bit:
parts, pin counts, part weights, gains, the returned
``(gain, moves kept, moves undone)`` and the RNG state.
"""

from __future__ import annotations

import numpy as np

from repro.partitioner import refine
from repro.partitioner.initial import _base_part
from repro.partitioner.refine import FMCore
from tests.graph_reference import GainBucket


def walk_order(heads, nxt, chains):
    """The vertices of *chains* (indices into *heads*, highest gain first),
    each chain head first: the order a bucket walk visits them."""
    order = []
    for b in chains:
        u = heads[b]
        while u != -1:
            order.append(u)
            u = nxt[u]
    return order


class ReferenceCore(FMCore):
    """:class:`FMCore` bookkeeping with the two-bucket move body."""

    def __init__(self, h, part, fixed=None):
        super().__init__(h, part, fixed)
        self.free = np.asarray(self.free, dtype=bool).tolist()
        self.locked = [False] * self.nv
        self.buckets: tuple[GainBucket, GainBucket] | None = None
        self.insert_on_touch = False

    def _bump(self, u: int, delta: int) -> None:
        g = self.gain[u] + delta
        self.gain[u] = g
        if self.buckets is not None:
            b = self.buckets[self.part[u]]
            if b.inside[u]:
                b.adjust(u, delta)
            elif self.insert_on_touch and not self.locked[u] and self.free[u]:
                b.insert(u, g)

    def apply_move(self, v: int) -> None:
        frm = self.part[v]
        to = 1 - frm
        pcf = self.pc[frm]
        pct = self.pc[to]
        xpins, pins, cost = self.xpins, self.pins, self.cost
        part, locked, free = self.part, self.locked, self.free
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]]:
            c = cost[n]
            T = pct[n]
            F = pcf[n]
            if c:
                lo, hi = xpins[n], xpins[n + 1]
                if T == 0:
                    for u in pins[lo:hi]:
                        if u != v and not locked[u] and free[u]:
                            self._bump(u, c)
                elif T == 1:
                    for u in pins[lo:hi]:
                        if part[u] == to:
                            if not locked[u] and free[u]:
                                self._bump(u, -c)
                            break
                if F == 1:
                    for u in pins[lo:hi]:
                        if u != v and not locked[u] and free[u]:
                            self._bump(u, -c)
                elif F == 2:
                    for u in pins[lo:hi]:
                        if u != v and part[u] == frm:
                            if not locked[u] and free[u]:
                                self._bump(u, c)
                            break
            pcf[n] = F - 1
            pct[n] = T + 1
        part[v] = to
        wv = self.w[v]
        self.W[frm] -= wv
        self.W[to] += wv
        self.gain[v] = -self.gain[v]

    def undo_move(self, v: int) -> None:
        frm = self.part[v]
        to = 1 - frm
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]]:
            self.pc[frm][n] -= 1
            self.pc[to][n] += 1
        self.part[v] = to
        wv = self.w[v]
        self.W[frm] -= wv
        self.W[to] += wv


def fm_pass(core: ReferenceCore, maxw, cfg, rng) -> tuple[int, int, int]:
    """One FM pass over two :class:`GainBucket` sides (cf. ``refine._fm_pass``)."""
    nv = core.nv
    boundary_mode = nv > cfg.fm_boundary_threshold
    cand = core.boundary_vertices() if boundary_mode else np.arange(nv)
    cand = cand[np.asarray(core.free, dtype=bool)[cand]]
    if len(cand) == 0:
        return 0, 0, 0
    seq = cand[rng.permutation(len(cand))]
    side = np.asarray(core.part, dtype=np.int64)[seq]
    W = core.W
    if not refine._any_first_move(
        core.h.vertex_weights[seq].astype(np.int64), side, W, maxw
    ):
        return 0, 0, 0

    core.compute_all_gains()
    core.locked = [False] * nv
    bound = core.h.max_incident_cost()
    buckets = (GainBucket(nv, bound), GainBucket(nv, bound))
    core.buckets = buckets
    core.insert_on_touch = boundary_mode
    for v in seq.tolist():
        buckets[core.part[v]].insert(v, core.gain[v])

    w = core.w
    exc0 = max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])
    moves: list[int] = []
    cum = best_cum = best_idx = 0
    best_feasible = exc0 == 0
    best_excess = exc0
    stall_window = max(int(cfg.fm_stall_frac * len(cand)), cfg.fm_stall_min)
    stalls = 0

    def pick(s: int):
        t = 1 - s
        if W[s] > maxw[s]:
            return buckets[s].best(
                lambda v: refine._may_move(w[v], W[s], maxw[s], W[t], maxw[t])
            )
        return buckets[s].best(lambda v: w[v] <= maxw[t] - W[t])

    for _ in range(nv):
        v0, v1 = pick(0), pick(1)
        if v0 is None and v1 is None:
            break
        if v0 is None:
            v = v1
        elif v1 is None:
            v = v0
        else:
            g0, g1 = core.gain[v0], core.gain[v1]
            if g0 != g1:
                v = v0 if g0 > g1 else v1
            else:
                v = v0 if W[0] >= W[1] else v1
        buckets[core.part[v]].remove(v)
        core.locked[v] = True
        g = core.gain[v]
        core.apply_move(v)
        moves.append(v)
        cum += g
        exc = max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])
        feas = exc == 0
        if feas != best_feasible:
            better = feas
        elif feas:
            better = cum > best_cum
        else:
            better = exc < best_excess or (exc == best_excess and cum > best_cum)
        if better:
            best_cum, best_idx = cum, len(moves)
            best_feasible, best_excess = feas, exc
            stalls = 0
        else:
            stalls += 1
            if stalls > stall_window:
                break

    core.buckets = None
    for v in reversed(moves[best_idx:]):
        core.undo_move(v)
        core.locked[v] = False
    return (best_cum if best_idx else 0), best_idx, len(moves) - best_idx


def ghg(h, target0: int, max0: int, rng, fixed=None) -> ReferenceCore:
    """Greedy growing over one :class:`GainBucket` (cf. ``initial.ghg_bisection``).

    Returns the final core so callers can compare its whole state.
    """
    part = _base_part(h, fixed)
    core = ReferenceCore(h, part, fixed)
    core.compute_all_gains()
    bucket = GainBucket(h.num_vertices, core.h.max_incident_cost())
    core.buckets = (GainBucket(h.num_vertices, 0), bucket)
    order = rng.permutation(h.num_vertices)
    order = order[(np.asarray(core.free, dtype=bool) & (part == 1))[order]]
    for v in order.tolist():
        bucket.insert(v, core.gain[v])
    w, W = core.w, core.W
    seeded = False
    while W[0] < target0 and len(bucket):
        if not seeded:
            v = int(order[rng.integers(len(order))])
            seeded = True
        else:
            v = bucket.best(lambda u: w[u] <= max0 - W[0])
            if v is None:
                break
        bucket.remove(v)
        core.locked[v] = True
        core.apply_move(v)
    return core
