"""Fiduccia–Mattheyses bisection refinement with gain buckets.

For a bisection the connectivity-minus-one metric (Eq. 3) coincides with the
cut-net metric (Eq. 2): every cut net has ``lambda = 2`` and contributes
exactly its cost.  The classic FM critical-net update rules therefore apply
unchanged, and recursive bisection with cut-net splitting extends the
guarantee to K-way connectivity cutsize (see recursive.py).

The module exposes a small engine class, :class:`FMCore`, shared by the
refinement pass and by greedy hypergraph growing in initial.py: it owns the
pin-count bookkeeping, the gain array, the flat two-sided gain-bucket
store (:class:`FMBuckets`) and the one move body, which applies the
critical-net gain updates.  A move costs two calls: the store selects
the mover (:meth:`FMBuckets.pick` for both sides at once, or a rescue
walk while a side is overweight), and :meth:`FMCore.apply_move` unlinks
and locks it, then updates its nets.  The move body relinks a touched
pin inline, once per rule that hits it, except on wide moves: a vertex
of many nets whose critical nets hold many pin events gathers them with
numpy and relinks each touched pin once (:meth:`FMCore._dedup_move`),
which leaves the same chains.  Growing skips the two rules that only
change gains on part 0, the side it grows, where no vertex is movable.
One core serves a GHG start and its FM: :func:`fm_refine_core` refines
the core GHG grew, with the cut GHG tracked, and
:func:`fm_refine_bisection` builds a core from a part vector first.

The graph partitioner's :class:`~repro.graph.partitioner.GraphCore` offers
the same interface with an edge-cut move body, so :func:`_fm_pass` and
:class:`FMBuckets` serve both models' FM and growing.

Set-up is paid once per core: construction counts both sides' pins with
one ``bincount`` and takes the cut and the side weights from the same
arrays, and the first pass of a call reads its side lookup and gain
inputs from those arrays instead of rebuilding them from the lists.

The move loops operate on plain Python lists, not numpy arrays: they make
millions of single-element reads and writes, where list indexing is
several times faster than numpy scalar indexing.  Numpy does the
whole-array steps between them (counts, gains, candidate tests).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder

__all__ = ["FMBuckets", "FMCore", "fm_refine_bisection", "fm_refine_core"]


#: ``FMBuckets.wfloor`` entry while no empty-handed walk is on record
_NO_FLOOR = float("-inf")
#: start of a walk's running minimum: every weight is below it
_NO_CEIL = float("inf")
#: a moving vertex with at least this many nets collects its critical nets
#: first, to see whether :meth:`FMCore._dedup_move` pays (every fine-grain
#: finest-level vertex has at most 2); the gate sweep behind both values
#: is in docs/performance.md
_DEDUP_DEGREE = 48
#: the pin events (one rule hitting one pin) from which it does
_DEDUP_EVENTS = 150


class FMBuckets:
    """Both sides' FM gain buckets in one flat store.

    One doubly-linked chain per (side, gain): side *s* owns
    ``heads[s * span : (s + 1) * span]`` and a vertex of gain *g* on side
    *s* sits in chain ``base[s] + g``.  A vertex is on one side, so the
    sides share ``nxt``, ``prv`` and ``inside``.  The gain of a stored
    vertex is read from its core's ``gain`` list itself, so a relink
    writes one number.  Per side the store keeps ``top`` (no chain above
    it is non-empty), ``count`` and ``wfloor``.

    Chains are LIFO: a vertex linked (inserted or relinked) into a chain
    becomes its head, and a walk visits higher gains first, heads first.

    ``wfloor`` is an exact memo of :meth:`best_capped`: a walk that finds
    nothing has seen every stored vertex of its side, so it records their
    minimum weight, and later calls whose cap is below it return ``None``
    without walking.  Only inserts can lower the minimum, so only
    :meth:`load` and a touch-mode insert in a core's ``apply_move``
    reset it; unlinks and relinks keep it valid, so it is never above
    the weight of a stored vertex.  Without the memo, FM re-walks a side
    where nothing fits on every move of a pass.

    The store selects and the cores move.  :meth:`pick` chooses the
    mover of both sides in one call while neither side is overweight;
    :meth:`best_capped` is one side's capped walk behind it, and
    :meth:`best` the rescue walk of an overweight side.  Only the cores'
    move bodies (:meth:`FMCore.apply_move` with its
    :meth:`FMCore._dedup_move`, and ``GraphCore.apply_move``) change the
    chains: each unlinks its mover if it is stored, then relinks the pins
    it changes, with no call per pin.  :meth:`load` refills every list in
    place, so a core binds them once for its whole life.
    """

    __slots__ = (
        "gain", "bound", "span", "base", "heads", "nxt", "prv", "inside",
        "top", "count", "wfloor", "touch",
    )

    def __init__(self, gain: list[int], bound: int) -> None:
        self.gain = gain
        self.bound = bound
        self.span = 2 * bound + 1
        #: chain of gain 0 on each side
        self.base = (bound, self.span + bound)
        # empty until the first load: nothing is stored, so apply_move
        # only updates gains, and no chain or link is read.  Every list is
        # refilled in place from then on: the cores bind them once
        self.heads: list[int] = []
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.inside = [False] * len(gain)
        self.top = [-1, self.span - 1]
        self.count = [0, 0]
        self.wfloor = [_NO_FLOOR, _NO_FLOOR]
        self.touch = False

    def load(self, vs: np.ndarray, sides, gains: np.ndarray, touch: bool) -> None:
        """Store exactly the vertices *vs*, linked one by one in this order:
        ``vs[i]`` on side ``sides[i]`` (an array, or one side for all) with
        gain ``gains[i]``, which must equal its entry in :attr:`gain`.

        With *touch*, the core's ``apply_move`` also links every movable
        vertex whose gain it changes (boundary mode, and growing).
        """
        n = len(self.gain)
        span = self.span
        heads, inside, nxt, prv = self.heads, self.inside, self.nxt, self.prv
        heads[:] = [-1] * (2 * span)
        inside[:] = [False] * n
        if len(nxt) != n:
            # links of unstored vertices are never read: reuse the lists
            nxt[:] = [-1] * n
            prv[:] = [-1] * n
        chains = np.asarray(sides, dtype=np.int64) * span + self.bound + gains
        for v, b in zip(vs.tolist(), chains.tolist()):
            hd = heads[b]
            nxt[v] = hd
            prv[v] = -1
            if hd != -1:
                prv[hd] = v
            heads[b] = v
            inside[v] = True
        m1 = int(np.count_nonzero(chains >= span))
        self.count[:] = (len(chains) - m1, m1)
        self.top[:] = (span - 1, 2 * span - 1)  # settled by the first walk
        self.wfloor[:] = (_NO_FLOOR, _NO_FLOOR)
        self.touch = touch

    def best_capped(self, s: int, w: list[int], cap: int) -> int | None:
        """The first vertex of side *s* in walk order with ``w[v] <= cap``.

        Every call must pass the same, unchanging *w* (FM and growing pass
        their core's vertex weights): that keeps the memo exact.
        """
        if self.count[s] == 0 or cap < self.wfloor[s]:
            return None
        heads, nxt = self.heads, self.nxt
        b = self.top[s]
        while heads[b] == -1:
            b -= 1
        self.top[s] = b
        lo = _NO_CEIL
        for b in range(b, s * self.span - 1, -1):
            v = heads[b]
            while v != -1:
                wv = w[v]
                if wv <= cap:
                    return v
                if wv < lo:
                    lo = wv
                v = nxt[v]
        self.wfloor[s] = lo
        return None

    def pick(self, w: list[int], cap0: int, cap1: int, heavy0: bool) -> int | None:
        """The vertex to move when neither side is overweight: the higher
        gain of ``best_capped(0, w, cap0)`` and ``best_capped(1, w, cap1)``,
        side 0 on a tie iff *heavy0*, or ``None`` if neither side has one.

        Each side's top head is looked at first, and ``best_capped`` runs
        only when that head is over the cap.  That is exact: a head that
        fits is the first vertex in walk order, and ``wfloor`` is never
        above its weight, so the memo would not have answered either.
        """
        heads, top = self.heads, self.top
        v0 = v1 = None
        if self.count[0]:
            b = top[0]
            while heads[b] == -1:
                b -= 1
            top[0] = b
            v0 = heads[b]
            if w[v0] > cap0:
                v0 = self.best_capped(0, w, cap0)
        if self.count[1]:
            b = top[1]
            while heads[b] == -1:
                b -= 1
            top[1] = b
            v1 = heads[b]
            if w[v1] > cap1:
                v1 = self.best_capped(1, w, cap1)
        if v0 is None:
            return v1
        if v1 is None:
            return v0
        g0, g1 = self.gain[v0], self.gain[v1]
        return v0 if g0 > g1 or (g0 == g1 and heavy0) else v1

    def best(self, s: int, feasible: Callable[[int], bool]) -> int | None:
        """The first vertex of side *s* in walk order that is *feasible*."""
        if self.count[s] == 0:
            return None
        heads, nxt = self.heads, self.nxt
        b = self.top[s]
        while heads[b] == -1:
            b -= 1
        self.top[s] = b
        for b in range(b, s * self.span - 1, -1):
            v = heads[b]
            while v != -1:
                if feasible(v):
                    return v
                v = nxt[v]
        return None


class FMCore:
    """Shared move engine for 2-way FM refinement and greedy growing.

    Holds the mutable bisection state: part vector, per-net pin counts on
    both sides, part weights, the per-vertex gain array, which vertices
    may still move, and the gain buckets (:attr:`bk`) that
    :meth:`apply_move` keeps in sync.
    """

    def __init__(
        self,
        h: Hypergraph,
        part: np.ndarray,
        fixed: np.ndarray | None = None,
    ) -> None:
        self.h = h
        self.nv = h.num_vertices
        self.nn = h.num_nets
        # shared read-only list views for the inner loops (cached on h)
        self.xpins = h.xpins_list()
        self.pins = h.pins_list()
        self.xnets = h.xnets_list()
        self.vnets = h.vnets_list()
        self.w = h.weights_list()
        self.vwgt = h.vertex_weights
        self.cost = h.costs_list()
        pa = np.asarray(part, dtype=INDEX_DTYPE)
        self.part: list[int] = pa.tolist()
        #: vertices that are not fixed
        self.free = (
            np.ones(self.nv, dtype=bool) if fixed is None else np.asarray(fixed) < 0
        )
        self.gain: list[int] = [0] * self.nv
        #: free vertices not moved yet in this pass or growth: the only
        #: ones whose gains :meth:`apply_move` maintains
        self.movable: list[bool] = self.free.tolist()
        self.bk = FMBuckets(self.gain, h.max_incident_cost())
        # pin counts per side
        self._net_of_pin = h.net_of_pin()
        #: ``(cut, (part array, pin-count array))`` as construction counted
        #: them.  The arrays describe the state before any move, so only the
        #: caller that built the core reads them, before it moves
        #: (:func:`fm_refine_bisection` hands them to its first pass).
        self.setup = self.recount(pa)

    # -- bookkeeping -----------------------------------------------------
    def part_array(self) -> np.ndarray:
        """The part vector as a numpy array (copy)."""
        return np.asarray(self.part, dtype=INDEX_DTYPE)

    def pin_counts(self) -> np.ndarray:
        """The pin counts as one array (copy): entry ``2 * n + s`` is net
        *n*'s pin count on side *s*."""
        return np.array(self.pc, dtype=np.int64).T.ravel()

    #: the array :func:`_fm_pass` hands to :meth:`boundary_vertices` and
    #: :meth:`compute_all_gains` (the graph's core has per-edge cut flags)
    cut_state = pin_counts

    def recount(
        self, pa: np.ndarray | None = None
    ) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        """Recompute pin counts and part weights from the part vector.

        *pa* is the part vector as an array, if the caller has one.
        Returns ``(cut, (part array, pin-count array))``: both sides'
        counts come from one ``bincount`` of ``2 * net + side``, and the
        cut from the same array.
        """
        if pa is None:
            pa = self.part_array()
        key = 2 * self._net_of_pin + pa[self.h.pins]
        pcs = np.bincount(key, minlength=2 * self.nn)
        self.pc = pcs.reshape(-1, 2).T.tolist()
        w = self.h.vertex_weights
        w1 = int(w[pa == 1].sum())
        self.W = [int(w.sum()) - w1, w1]
        bk = self.bk
        #: every list :meth:`apply_move` reads or writes, bound once: none
        #: is rebound during the core's life except here
        self._moves = (
            self.part, self.gain, self.movable, self.pc, self.W, self.w,
            self.vnets, self.xnets, self.pins, self.xpins, self.cost, bk,
            bk.heads, bk.nxt, bk.prv, bk.inside, bk.top, bk.count, bk.wfloor,
            bk.base,
        )
        cut = int(self.h.net_costs[_cut_nets(pcs)].sum())
        return cut, (pa, pcs)

    def cut(self) -> int:
        """Current cut cost (sum of costs of nets with pins on both sides)."""
        return int(self.h.net_costs[_cut_nets(self.pin_counts())].sum())

    def compute_all_gains(
        self, pa: np.ndarray | None = None, pcs: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized FM gain of every vertex (positive = cut decreases).

        *pa* and *pcs* are the part vector and the pin counts as arrays
        (:meth:`part_array`, :meth:`pin_counts`), if the caller has them.
        Stores the gains in :attr:`gain` (in place: the buckets read that
        list) and returns them as an array.
        """
        if pa is None:
            pa = self.part_array()
        if pcs is None:
            pcs = self.pin_counts()
        non = self._net_of_pin
        key = 2 * non + pa[self.h.pins]
        same = pcs[key]
        other = pcs[key ^ 1]
        contrib = self.h.net_costs[non] * (
            (same == 1).astype(np.int64) - (other == 0).astype(np.int64)
        )
        # bincount beats np.add.at by an order of magnitude; float64
        # accumulation is exact here (integer contributions far below 2**53)
        g = np.bincount(
            self.h.pins, weights=contrib, minlength=self.nv
        ).astype(np.int64)
        self.gain[:] = g.tolist()
        return g

    def boundary_vertices(self, pcs: np.ndarray | None = None) -> np.ndarray:
        """Vertices incident to at least one cut net (*pcs* as in
        :meth:`compute_all_gains`)."""
        if pcs is None:
            pcs = self.pin_counts()
        sel = _cut_nets(pcs)[self._net_of_pin]
        return np.unique(self.h.pins[sel])

    # -- the move --------------------------------------------------------
    def apply_move(self, v: int, grow: bool = False) -> None:
        """Move vertex *v* to the other side and lock it there.

        Unlinks *v* from :attr:`bk` if it is stored and marks it not
        movable.  Then updates pin counts and part weights, and applies the
        FM critical-net rules to the gains of the movable pins of each net
        of *v*, relinking every such pin that is stored in :attr:`bk` (in
        boundary mode, linking it if it is not).  Before the move, for a
        net with ``F`` pins on *v*'s side and ``T`` on the other:

        * ``T == 0``: the other pins (all on *v*'s side) can no longer keep
          the net uncut by staying, so each gains the net's cost;
        * ``T == 1``: the lone pin on the other side no longer uncuts the
          net by leaving, so it loses the cost;
        * ``F == 1``: the net ends up wholly on the other side, so every
          other pin loses the incentive to pull it back;
        * ``F == 2``: the one pin left on *v*'s side gains the cost.

        Two rules hit one pin only on a 2-pin net (``T == 0`` and
        ``F == 2``, or ``T == 1`` and ``F == 1``); its two deltas are
        applied as one relink, which leaves the same chains as two.  Pins of
        different sides sit in disjoint chains, so visiting them in pin
        order is the same as rule by rule.

        *grow* says that no pin on the other side is movable (greedy
        growing: every part-0 vertex is fixed or already moved), so the
        ``T == 1`` and ``F == 1`` rules change nothing and their walks are
        skipped.

        A vertex of at least ``_DEDUP_DEGREE`` nets goes through
        :meth:`_dedup_move` first, which relinks each touched pin once
        when its critical nets hold enough pin events.
        """
        (
            part, gain, movable, pc, W, w, vnets, xnets, pins, xpins, cost, bk,
            heads, nxt, prv, inside, top, count, wfloor, base,
        ) = self._moves
        frm = part[v]
        to = 1 - frm
        base_f = base[frm]
        base_t = base[to]
        movable[v] = False
        if inside[v]:
            nx, pv = nxt[v], prv[v]
            if pv != -1:
                nxt[pv] = nx
            else:
                heads[base_f + gain[v]] = nx
            if nx != -1:
                prv[nx] = pv
            inside[v] = False
            count[frm] -= 1
        touch = bk.touch
        pcf = pc[frm]
        pct = pc[to]
        nets = vnets[xnets[v] : xnets[v + 1]]
        if len(nets) >= _DEDUP_DEGREE:
            nets = self._dedup_move(v, nets, grow)
        for n in nets:
            F = pcf[n]
            T = pct[n]
            pcf[n] = F - 1
            pct[n] = T + 1
            c = cost[n]
            if (T > 1 and F > 2) or not c:
                continue  # not critical: no gain changes
            # deltas for the other pins on v's side and on the other side,
            # and how many pins carry a nonzero one (the loop ends there)
            df = (c if T == 0 else 0) + (c if F == 2 else 0)
            dt = 0 if grow else -(c if T == 1 else 0) - (c if F == 1 else 0)
            left = (F - 1 if df else 0) + (T if dt else 0)
            if not left:
                continue
            for u in pins[xpins[n] : xpins[n + 1]]:
                if part[u] == frm:
                    if u == v or not df:
                        continue
                    d, s, base = df, frm, base_f
                elif dt:
                    d, s, base = dt, to, base_t
                else:
                    continue
                if not movable[u]:
                    pass
                elif inside[u] or touch:
                    g = gain[u]
                    if inside[u]:
                        nx, pv = nxt[u], prv[u]
                        if pv != -1:
                            nxt[pv] = nx
                        else:
                            heads[base + g] = nx
                        if nx != -1:
                            prv[nx] = pv
                    else:
                        inside[u] = True
                        count[s] += 1
                        wfloor[s] = _NO_FLOOR
                    g += d
                    gain[u] = g
                    b = base + g
                    hd = heads[b]
                    nxt[u] = hd
                    prv[u] = -1
                    if hd != -1:
                        prv[hd] = u
                    heads[b] = u
                    if b > top[s]:
                        top[s] = b
                else:
                    gain[u] += d
                left -= 1
                if not left:
                    break
        part[v] = to
        wv = w[v]
        W[frm] -= wv
        W[to] += wv
        # v's own gain simply flips sign for the reverse move
        gain[v] = -gain[v]

    def _dedup_move(self, v: int, nets: list[int], grow: bool) -> list[int]:
        """The count and gain updates of :meth:`apply_move` for the nets
        *nets* of *v*, relinking each touched pin once; returns the nets
        whose updates are left to the inline loop.

        It updates the counts of every net whose gains do not change and
        sums the pin events (a pin hit by one rule of one net) of the
        critical ones.  Under ``_DEDUP_EVENTS`` it hands those nets back:
        the inline loop is faster there.  Otherwise it updates their counts
        too, gathers every event with numpy, relinks each touched movable
        pin once, with its summed delta, in the order of its last event,
        and returns no net.  That leaves the chains as relinking per event
        does: a pin's place in a LIFO chain depends only on its last
        relink, and the pins relinked after it.  ``top`` only has to bound
        the non-empty chains from above, and the final chains are among
        those the per-event relinks reached.  A pin linked on touch is
        linked once, as it would have been by its first event.
        """
        part, pcs = self.part, self.pc
        frm = part[v]
        pcf = pcs[frm]
        pct = pcs[1 - frm]
        cost = self.cost
        crit: list[int] = []  # (net, df, dt) triples, flat
        events = 0
        for n in nets:
            F = pcf[n]
            T = pct[n]
            c = cost[n]
            if (T > 1 and F > 2) or not c:
                left = 0
            else:
                df = (c if T == 0 else 0) + (c if F == 2 else 0)
                dt = 0 if grow else -(c if T == 1 else 0) - (c if F == 1 else 0)
                left = (F - 1 if df else 0) + (T if dt else 0)
            if left:
                crit += (n, df, dt)
                events += left
            else:
                pcf[n] = F - 1
                pct[n] = T + 1
        if events < _DEDUP_EVENTS:
            return crit[::3]
        get_recorder().add("fm.dedup_moves")
        for n in crit[::3]:
            pcf[n] -= 1
            pct[n] += 1
        if not crit:  # only an events gate of 0 gets here with no event
            return crit
        # every pin of the critical nets, net by net in pin order
        cn, cdf, cdt = np.array(crit, dtype=np.int64).reshape(-1, 3).T
        xpins = self.h.xpins
        lo = xpins[cn]
        size = xpins[cn + 1] - lo
        end = np.cumsum(size)
        us = self.h.pins[np.arange(end[-1]) + np.repeat(lo - end + size, size)]
        # each pin's delta by its side; growing has no movable pin on the
        # other side, so it skips the side lookup
        ds = np.repeat(cdf, size)
        if not grow:
            # converting the part list costs O(nv), looking up each pin
            # O(pins) at a higher constant: take the shorter
            if self.nv <= len(us):
                side = np.array(part)[us]
            else:
                side = np.fromiter(map(part.__getitem__, us.tolist()), np.int64)
            ds = np.where(side == frm, ds, np.repeat(cdt, size))
        hit = ds != 0
        us = us[hit]
        ds = ds[hit]
        at = np.arange(len(us))
        # per touched pin: its last event and its summed delta
        last = np.empty(self.nv, dtype=np.int64)
        last[us] = -1
        np.maximum.at(last, us, at)
        dsum = np.empty(self.nv, dtype=np.int64)
        dsum[us] = 0
        np.add.at(dsum, us, ds)
        touched = us[last[us] == at]  # in the order of their last events
        gain, bk = self.gain, self.bk
        heads, nxt, prv, inside = bk.heads, bk.nxt, bk.prv, bk.inside
        top, count, wfloor, touch = bk.top, bk.count, bk.wfloor, bk.touch
        movable = self.movable
        for u, d in zip(touched.tolist(), dsum[touched].tolist()):
            if u == v or not movable[u]:
                continue
            s = part[u]
            base = bk.base[s]
            if inside[u] or touch:
                g = gain[u]
                if inside[u]:
                    nx, pv = nxt[u], prv[u]
                    if pv != -1:
                        nxt[pv] = nx
                    else:
                        heads[base + g] = nx
                    if nx != -1:
                        prv[nx] = pv
                else:
                    inside[u] = True
                    count[s] += 1
                    wfloor[s] = _NO_FLOOR
                g += d
                gain[u] = g
                b = base + g
                hd = heads[b]
                nxt[u] = hd
                prv[u] = -1
                if hd != -1:
                    prv[hd] = u
                heads[b] = u
                if b > top[s]:
                    top[s] = b
            else:
                gain[u] += d
        return []

    def undo_moves(self, moves: list[int]) -> None:
        """Reverse *moves* (latest first) without gain maintenance."""
        pc, W, w = self.pc, self.W, self.w
        part, vnets, xnets = self.part, self.vnets, self.xnets
        for v in reversed(moves):
            frm = part[v]  # side v is on now
            to = 1 - frm
            pcf = pc[frm]
            pct = pc[to]
            for n in vnets[xnets[v] : xnets[v + 1]]:
                pcf[n] -= 1
                pct[n] += 1
            part[v] = to
            W[frm] -= w[v]
            W[to] += w[v]


def _cut_nets(pcs: np.ndarray) -> np.ndarray:
    """Mask of the nets with pins on both sides (*pcs* as in
    :meth:`FMCore.pin_counts`)."""
    pcs = pcs.reshape(-1, 2)
    return (pcs[:, 0] > 0) & (pcs[:, 1] > 0)


def _excess(W: list[int], maxw: tuple[int, int]) -> int:
    return max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])


def _may_move(wv, w_frm, max_frm, w_to, max_to):
    """Whether a vertex of weight *wv* may move from side ``frm`` to ``to``.

    It may when it fits under the target side's cap, or as a rescue move:
    the source side is overweight and the move strictly reduces total
    excess, ``max(0, inc) < min(wv, over)``, written as the four
    comparisons that inequality expands to.  Works on Python ints (the
    move loop) and elementwise on arrays (the no-move exit of
    :func:`_fm_pass`), so both use this one rule.
    """
    inc = w_to + wv - max_to  # excess the move adds on the target side
    over = w_frm - max_frm  # excess of the source side before the move
    return (inc <= 0) | ((over > 0) & (wv > 0) & (inc < wv) & (inc < over))


def _any_first_move(
    w: np.ndarray, side: np.ndarray, W: list[int], maxw: tuple[int, int]
) -> bool:
    """Whether any candidate (weights *w*, sides *side*) may move first."""
    Wa = np.asarray(W, dtype=np.int64)
    ma = np.asarray(maxw, dtype=np.int64)
    to = 1 - side
    return bool(_may_move(w, Wa[side], ma[side], Wa[to], ma[to]).any())


def fm_refine_bisection(
    h: Hypergraph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Refine a bisection with boundary FM; returns ``(part, cut)``.

    Never returns a partition with larger cut unless it strictly reduces
    balance excess (when the input violates ``max_weights``); never
    increases balance excess.
    """
    core = FMCore(h, part, fixed)
    cut, arrays = core.setup
    cut = fm_refine_core(core, cut, max_weights, cfg, as_rng(rng), arrays)
    return core.part_array(), cut


def fm_refine_core(
    core: FMCore,
    cut: int,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    arrays: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Run up to ``cfg.fm_passes`` FM passes on *core*, whose current cut
    is *cut*; returns the cut after them.  The core holds the result.

    *arrays* are the core's part and pin-count arrays (``core.setup``)
    when it has not moved since construction: the first pass reads them
    instead of rebuilding them from the lists.
    """
    h = core.h
    maxw = (int(max_weights[0]), int(max_weights[1]))
    rec = get_recorder()
    with rec.span(
        "refine.fm",
        vertices=h.num_vertices,
        nets=h.num_nets,
        pins=h.num_pins,
    ) as sp:
        cut0 = cut
        passes = moves = rollbacks = 0
        for _ in range(cfg.fm_passes):
            gain, kept, undone = _fm_pass(core, maxw, cfg, rng, arrays)
            arrays = None
            cut -= gain
            passes += 1
            moves += kept
            rollbacks += undone
            if gain <= 0 and not kept:
                break
        sp.set(cut=cut, passes=passes, moves=moves, rollbacks=rollbacks)
        rec.add("fm.passes", passes)
        rec.add("fm.moves", moves)
        rec.add("fm.rollbacks", rollbacks)
        rec.add("fm.cut_delta", cut0 - cut)
    return cut


def _fm_pass(
    core: FMCore,
    maxw: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    arrays: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int, int]:
    """One FM pass on *core* (an :class:`FMCore` or a
    :class:`~repro.graph.partitioner.GraphCore`).  Returns (cut
    improvement, moves kept, moves undone); the improvement is 0 when no
    move is kept.

    *arrays* are the core's current part array and :meth:`cut_state`
    (pin counts, or the graph's per-edge cut flags), if the caller has
    them; otherwise the pass builds them from the lists.

    A pass whose candidates cannot make a first move (none fits under the
    other side's cap and no rescue move applies) moves nothing, so it
    returns ``(0, 0, 0)`` right after drawing its candidate permutation —
    before computing gains or filling buckets — and counts as an
    ``fm.idle_passes``.  Nothing else in a pass draws from *rng*, so the
    exit leaves the RNG stream and the result bit-identical to running the
    pass through.
    """
    nv = core.nv
    boundary_mode = nv > cfg.fm_boundary_threshold
    if arrays is None:
        pa = core.part_array()
        pcs = core.cut_state() if boundary_mode else None
    else:
        pa, pcs = arrays
    if boundary_mode:
        cand = core.boundary_vertices(pcs)
    else:
        cand = np.arange(nv)
    cand = cand[core.free[cand]]
    if len(cand) == 0:
        get_recorder().add("fm.idle_passes")
        return 0, 0, 0
    seq = cand[rng.permutation(len(cand))]
    side = pa[seq]
    W = core.W
    if not _any_first_move(core.vwgt[seq].astype(np.int64), side, W, maxw):
        get_recorder().add("fm.idle_passes")
        return 0, 0, 0

    gain_np = core.compute_all_gains(pa, pcs)
    core.movable[:] = core.free.tolist()
    bk = core.bk
    # seed both sides in permutation order
    bk.load(seq, side, gain_np[seq], touch=boundary_mode)

    w, gain = core.w, core.gain
    max0, max1 = maxw
    exc0 = _excess(W, maxw)

    # move log for rollback
    moves: list[int] = []
    cum = 0
    best_cum = 0
    best_idx = 0  # number of moves kept
    best_feasible = exc0 == 0
    best_excess = exc0
    stall_window = max(int(cfg.fm_stall_frac * len(cand)), cfg.fm_stall_min)
    stalls = 0

    def feasible_to(side_to: int):
        side_frm = 1 - side_to
        args = (W[side_frm], maxw[side_frm], W[side_to], maxw[side_to])
        return lambda v: _may_move(w[v], *args)

    # boundary mode can grow the candidate pool mid-pass, so cap at nv
    for _ in range(nv):
        W0, W1 = W
        if W0 <= max0 and W1 <= max1:
            # no side is overweight: the feasibility test collapses to the
            # other side's weight cap, and a tie moves from the heavier side
            v = bk.pick(w, max1 - W1, max0 - W0, W0 >= W1)
            if v is None:
                break
        else:
            # an overweight side selects by the rescue walk
            if W0 > max0:
                v0 = bk.best(0, feasible_to(1))
            else:
                v0 = bk.best_capped(0, w, max1 - W1)
            if W1 > max1:
                v1 = bk.best(1, feasible_to(0))
            else:
                v1 = bk.best_capped(1, w, max0 - W0)
            if v0 is None:
                if v1 is None:
                    break
                v = v1
            elif v1 is None:
                v = v0
            else:
                g0, g1 = gain[v0], gain[v1]
                v = v0 if g0 > g1 or (g0 == g1 and W0 >= W1) else v1
        cum += gain[v]
        core.apply_move(v)
        moves.append(v)
        e0 = W[0] - max0
        e1 = W[1] - max1
        if e0 <= 0 and e1 <= 0:
            exc = 0
            better = cum > best_cum or not best_feasible
        else:
            exc = (e0 if e0 > 0 else 0) + (e1 if e1 > 0 else 0)
            better = not best_feasible and (
                exc < best_excess or (exc == best_excess and cum > best_cum)
            )
        if better:
            best_cum = cum
            best_idx = len(moves)
            best_feasible = not exc
            best_excess = exc
            stalls = 0
        else:
            stalls += 1
            if stalls > stall_window:
                break

    # roll back to the best prefix
    core.undo_moves(moves[best_idx:])
    return (best_cum if best_idx else 0), best_idx, len(moves) - best_idx
