"""Fiduccia–Mattheyses bisection refinement with gain buckets.

For a bisection the connectivity-minus-one metric (Eq. 3) coincides with the
cut-net metric (Eq. 2): every cut net has ``lambda = 2`` and contributes
exactly its cost.  The classic FM critical-net update rules therefore apply
unchanged, and recursive bisection with cut-net splitting extends the
guarantee to K-way connectivity cutsize (see recursive.py).

The module exposes a small engine class, :class:`FMCore`, shared by the
refinement pass and by greedy hypergraph growing in initial.py: it owns the
pin-count bookkeeping, the gain array, and the critical-net gain updates of
a vertex move.

Hot loops operate on plain Python lists (see gainbucket.py for why).
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.gainbucket import GainBucket
from repro.telemetry import get_recorder

__all__ = ["FMCore", "fm_refine_bisection"]


class FMCore:
    """Shared move engine for 2-way FM refinement and greedy growing.

    Holds the mutable bisection state: part vector, per-net pin counts on
    both sides, part weights, the per-vertex gain array, and (optionally)
    the gain buckets to keep synchronized during moves.
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
        self.cost = h.costs_list()
        self.part: list[int] = np.asarray(part, dtype=INDEX_DTYPE).tolist()
        self.free = [True] * self.nv
        if fixed is not None:
            for v in np.flatnonzero(fixed >= 0):
                self.free[int(v)] = False
        # pin counts per side
        self._net_of_pin = h.net_of_pin()
        self.recount()
        self.gain: list[int] = [0] * self.nv
        self.locked: list[bool] = [False] * self.nv
        self.buckets: tuple[GainBucket, GainBucket] | None = None
        #: in boundary mode, vertices touched by a gain update get inserted
        self.insert_on_touch = False

    # -- bookkeeping -----------------------------------------------------
    def part_array(self) -> np.ndarray:
        """The part vector as a numpy array (copy)."""
        return np.asarray(self.part, dtype=INDEX_DTYPE)

    def recount(self) -> None:
        """Recompute pin counts and part weights from the part vector."""
        pa = self.part_array()
        part_of_pin = pa[self.h.pins]
        pc0 = np.bincount(self._net_of_pin[part_of_pin == 0], minlength=self.nn)
        pc1 = np.bincount(self._net_of_pin[part_of_pin == 1], minlength=self.nn)
        self.pc = [pc0.astype(np.int64).tolist(), pc1.astype(np.int64).tolist()]
        w = self.h.vertex_weights
        w1 = int(w[pa == 1].sum())
        self.W = [int(w.sum()) - w1, w1]

    def cut(self) -> int:
        """Current cut cost (sum of costs of nets with pins on both sides)."""
        pc0 = np.asarray(self.pc[0])
        pc1 = np.asarray(self.pc[1])
        return int(self.h.net_costs[(pc0 > 0) & (pc1 > 0)].sum())

    def compute_all_gains(self) -> None:
        """Vectorized FM gain of every vertex (positive = cut decreases)."""
        pc0 = np.asarray(self.pc[0], dtype=np.int64)
        pc1 = np.asarray(self.pc[1], dtype=np.int64)
        non = self._net_of_pin
        pp = self.part_array()[self.h.pins]
        same = np.where(pp == 0, pc0[non], pc1[non])
        other = np.where(pp == 0, pc1[non], pc0[non])
        contrib = self.h.net_costs[non] * (
            (same == 1).astype(np.int64) - (other == 0).astype(np.int64)
        )
        # bincount beats np.add.at by an order of magnitude; float64
        # accumulation is exact here (integer contributions far below 2**53)
        g = np.bincount(
            self.h.pins, weights=contrib, minlength=self.nv
        ).astype(np.int64)
        self.gain = g.tolist()

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut net."""
        pc0 = np.asarray(self.pc[0])
        pc1 = np.asarray(self.pc[1])
        cutmask = (pc0 > 0) & (pc1 > 0)
        sel = cutmask[self._net_of_pin]
        return np.unique(self.h.pins[sel])

    def max_gain_bound(self) -> int:
        """Upper bound on |gain|: the max total incident net cost."""
        return self.h.max_incident_cost()

    # -- the move --------------------------------------------------------
    def _bump(self, u: int, delta: int) -> None:
        """Apply a gain delta to vertex *u*, keeping buckets in sync."""
        g = self.gain[u] + delta
        self.gain[u] = g
        if self.buckets is not None:
            b = self.buckets[self.part[u]]
            if b.inside[u]:
                b.move_to(u, g)
            elif self.insert_on_touch and not self.locked[u] and self.free[u]:
                b.insert(u, g)

    def apply_move(self, v: int, update_gains: bool = True) -> None:
        """Move vertex *v* to the opposite side, updating pin counts,
        weights, and (when *update_gains*) neighbour gains by the FM
        critical-net rules."""
        frm = self.part[v]
        to = 1 - frm
        pcf = self.pc[frm]
        pct = self.pc[to]
        xpins, pins, cost = self.xpins, self.pins, self.cost
        part, locked, free = self.part, self.locked, self.free
        bump = self._bump
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]]:
            c = cost[n]
            T = pct[n]
            F = pcf[n]
            if update_gains and c:
                lo, hi = xpins[n], xpins[n + 1]
                if T == 0:
                    # net leaves the "entirely in frm" state: every other
                    # pin can now cut it one unit less by following v
                    for u in pins[lo:hi]:
                        if u != v and not locked[u] and free[u]:
                            bump(u, c)
                elif T == 1:
                    # the lone to-side pin loses its uncut-by-moving gain
                    for u in pins[lo:hi]:
                        if part[u] == to:
                            if not locked[u] and free[u]:
                                bump(u, -c)
                            break
                if F == 1:
                    # net becomes entirely in 'to': every pin loses the
                    # incentive (it can no longer uncut the net)
                    for u in pins[lo:hi]:
                        if u != v and not locked[u] and free[u]:
                            bump(u, -c)
                elif F == 2:
                    # exactly one frm-side pin remains: it gains
                    for u in pins[lo:hi]:
                        if u != v and part[u] == frm:
                            if not locked[u] and free[u]:
                                bump(u, c)
                            break
            pcf[n] = F - 1
            pct[n] = T + 1
        self.part[v] = to
        wv = self.w[v]
        self.W[frm] -= wv
        self.W[to] += wv
        # v's own gain simply flips sign for the reverse move
        self.gain[v] = -self.gain[v]

    def undo_move(self, v: int) -> None:
        """Reverse a prior :meth:`apply_move` without gain maintenance."""
        frm = self.part[v]  # side v is on now
        to = 1 - frm
        pcf = self.pc[frm]
        pct = self.pc[to]
        for n in self.vnets[self.xnets[v] : self.xnets[v + 1]]:
            pcf[n] -= 1
            pct[n] += 1
        self.part[v] = to
        wv = self.w[v]
        self.W[frm] -= wv
        self.W[to] += wv


def _excess(W: list[int], maxw: tuple[int, int]) -> int:
    return max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])


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
    rng = as_rng(rng)
    core = FMCore(h, part, fixed)
    maxw = (int(max_weights[0]), int(max_weights[1]))
    cut = core.cut()

    rec = get_recorder()
    with rec.span(
        "refine.fm",
        vertices=h.num_vertices,
        nets=h.num_nets,
        pins=h.num_pins,
    ) as sp:
        cut0 = cut
        for _ in range(cfg.fm_passes):
            gain, moved = _fm_pass(core, maxw, cfg, rng)
            cut -= gain
            rec.add("fm.passes")
            if gain <= 0 and not moved:
                break
        sp.set(cut=cut)
        rec.add("fm.cut_delta", cut0 - cut)
    return core.part_array(), cut


def _fm_pass(
    core: FMCore,
    maxw: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """One FM pass.  Returns (cut improvement, whether anything changed)."""
    nv = core.nv
    core.compute_all_gains()
    core.locked = [False] * nv

    boundary_mode = nv > cfg.fm_boundary_threshold
    if boundary_mode:
        cand = core.boundary_vertices()
    else:
        cand = np.arange(nv)
    cand = cand[np.asarray(core.free, dtype=bool)[cand]]
    if len(cand) == 0:
        return 0, False

    bound = core.max_gain_bound()
    b0 = GainBucket(nv, bound)
    b1 = GainBucket(nv, bound)
    core.buckets = (b0, b1)
    core.insert_on_touch = boundary_mode
    # seed both buckets in permutation order; the buckets are independent,
    # so splitting by side preserves each one's insertion sequence exactly
    seq = cand[rng.permutation(len(cand))]
    side = np.asarray(core.part, dtype=np.int64)[seq]
    gain_np = np.asarray(core.gain, dtype=np.int64)
    b0.bulk_insert(seq[side == 0], gain_np[seq[side == 0]])
    b1.bulk_insert(seq[side == 1], gain_np[seq[side == 1]])

    W = core.W
    w = core.w
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
        cap = maxw[side_to] - W[side_to]
        side_frm = 1 - side_to
        over_frm = W[side_frm] > maxw[side_frm]

        def ok(v: int) -> bool:
            wv = w[v]
            if wv <= cap:
                return True
            # rescue move: source side is overweight and the move strictly
            # reduces total excess
            if not over_frm:
                return False
            red = min(wv, W[side_frm] - maxw[side_frm])
            inc = max(0, W[side_to] + wv - maxw[side_to])
            return inc < red

        return ok

    # boundary mode can grow the candidate pool mid-pass, so cap at nv
    max_moves = nv
    for _ in range(max_moves):
        # fast path: when the source side is not overweight the feasibility
        # test collapses to a weight cap, which best_capped checks inline
        if W[0] > maxw[0]:
            v0 = b0.best(feasible_to(1))
        else:
            v0 = b0.best_capped(w, maxw[1] - W[1])
        if W[1] > maxw[1]:
            v1 = b1.best(feasible_to(0))
        else:
            v1 = b1.best_capped(w, maxw[0] - W[0])
        if v0 is None and v1 is None:
            break
        if v0 is None:
            v = v1
        elif v1 is None:
            v = v0
        else:
            g0, g1 = core.gain[v0], core.gain[v1]
            if g0 > g1:
                v = v0
            elif g1 > g0:
                v = v1
            else:
                # tie: move from the heavier side to help balance
                v = v0 if W[0] >= W[1] else v1
        b = b0 if core.part[v] == 0 else b1
        b.remove(v)
        core.locked[v] = True
        g = core.gain[v]
        core.apply_move(v, update_gains=True)
        moves.append(v)
        cum += g
        e0 = W[0] - maxw[0]
        e1 = W[1] - maxw[1]
        exc = (e0 if e0 > 0 else 0) + (e1 if e1 > 0 else 0)
        feas = exc == 0
        better = False
        if feas and not best_feasible:
            better = True
        elif feas == best_feasible:
            if feas:
                better = cum > best_cum
            else:
                better = (exc < best_excess) or (exc == best_excess and cum > best_cum)
        if better:
            best_cum = cum
            best_idx = len(moves)
            best_feasible = feas
            best_excess = exc
            stalls = 0
        else:
            stalls += 1
            if stalls > stall_window:
                break

    # roll back to the best prefix
    core.buckets = None
    for v in reversed(moves[best_idx:]):
        core.undo_move(v)
        core.locked[v] = False

    rec = get_recorder()
    if rec.enabled:
        rec.add("fm.moves", best_idx)
        rec.add("fm.rollbacks", len(moves) - best_idx)
    changed = best_idx > 0
    return (best_cum if changed else 0), changed
