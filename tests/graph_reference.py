"""Reference graph FM and greedy growing: the test oracle for
``repro.graph.partitioner``.

This is the graph partitioner as it was before its FM and growing moved
onto the flat two-sided store (``refine.FMBuckets``) and the shared pass
driver (``refine._fm_pass``): a :class:`GainBucket` per side (one for
growing), per-vertex ``locked``/``inb`` lists, an ``adjust`` call per
touched neighbour and a feasibility closure per selection.  Production
code must match it bit for bit: parts, cuts and the RNG state.

:class:`GainBucket` is also the two-bucket store of the hypergraph
reference in ``tests/fm_reference.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util import INDEX_DTYPE
from repro.graph.graph import Graph
from repro.graph.metrics import edge_cut
from repro.graph.partitioner import (
    contract,
    heavy_edge_matching,
    random_graph_bisection,
)
from repro.partitioner.config import PartitionerConfig


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


def _graph_gains(g: Graph, part: np.ndarray) -> np.ndarray:
    """FM gain (external minus internal weighted degree) of every vertex."""
    src = np.repeat(np.arange(g.num_vertices, dtype=INDEX_DTYPE), np.diff(g.xadj))
    ext = part[src] != part[g.adj]
    signed = np.where(ext, g.adjwgt, -g.adjwgt)
    gains = np.zeros(g.num_vertices, dtype=np.int64)
    np.add.at(gains, src, signed)
    return gains


def fm_refine_graph(
    g: Graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Boundary FM on the edge-cut metric; returns ``(part, cut)``."""
    nv = g.num_vertices
    part = np.asarray(part, dtype=INDEX_DTYPE).copy()
    cut = edge_cut(g, part)
    if nv == 0:
        return part, cut

    xadj = g.xadj.tolist()
    adj = g.adj.tolist()
    wgt = g.adjwgt.tolist()
    vw = g.vwgt.tolist()
    maxw = (int(max_weights[0]), int(max_weights[1]))

    for _ in range(cfg.fm_passes):
        gains = _graph_gains(g, part).tolist()
        part_l = part.tolist()
        W1 = int(g.vwgt[part == 1].sum())
        W = [g.total_vertex_weight() - W1, W1]

        boundary_mode = nv > cfg.fm_boundary_threshold
        if boundary_mode:
            src = np.repeat(np.arange(nv, dtype=INDEX_DTYPE), np.diff(g.xadj))
            bnd = np.unique(src[part[src] != part[g.adj]])
            cand = bnd
        else:
            cand = np.arange(nv)
        if len(cand) == 0:
            break

        wd = np.zeros(nv, dtype=np.int64)
        if len(g.adj):
            src_all = np.repeat(np.arange(nv, dtype=INDEX_DTYPE), np.diff(g.xadj))
            np.add.at(wd, src_all, g.adjwgt)
        bound = max(int(wd.max(initial=1)), 1)
        b0 = GainBucket(nv, bound)
        b1 = GainBucket(nv, bound)
        locked = [False] * nv
        inb = [False] * nv
        for i in rng.permutation(len(cand)):
            v = int(cand[i])
            (b0 if part_l[v] == 0 else b1).insert(v, gains[v])
            inb[v] = True

        exc0 = max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])
        moves: list[int] = []
        cum = 0
        best_cum, best_idx = 0, 0
        best_feas = exc0 == 0
        best_exc = exc0
        stall_window = max(int(cfg.fm_stall_frac * len(cand)), cfg.fm_stall_min)
        stalls = 0

        def feasible_to(d: int):
            cap = maxw[d] - W[d]
            s = 1 - d
            over = W[s] > maxw[s]

            def ok(v: int) -> bool:
                wv = vw[v]
                if wv <= cap:
                    return True
                if not over:
                    return False
                red = min(wv, W[s] - maxw[s])
                inc = max(0, W[d] + wv - maxw[d])
                return inc < red

            return ok

        for _ in range(nv):
            v0 = b0.best(feasible_to(1))
            v1 = b1.best(feasible_to(0))
            if v0 is None and v1 is None:
                break
            if v0 is None:
                v = v1
            elif v1 is None:
                v = v0
            elif gains[v0] != gains[v1]:
                v = v0 if gains[v0] > gains[v1] else v1
            else:
                v = v0 if W[0] >= W[1] else v1
            frm = part_l[v]
            to = 1 - frm
            (b0 if frm == 0 else b1).remove(v)
            inb[v] = False
            locked[v] = True
            g_v = gains[v]
            # apply: neighbours previously internal become external and
            # vice versa -> delta of +-2w
            for t in range(xadj[v], xadj[v + 1]):
                u = adj[t]
                if locked[u]:
                    continue
                delta = 2 * wgt[t] if part_l[u] == frm else -2 * wgt[t]
                gains[u] += delta
                if inb[u]:
                    (b0 if part_l[u] == 0 else b1).adjust(u, delta)
                elif boundary_mode:
                    (b0 if part_l[u] == 0 else b1).insert(u, gains[u])
                    inb[u] = True
            part_l[v] = to
            gains[v] = -g_v
            W[frm] -= vw[v]
            W[to] += vw[v]
            moves.append(v)
            cum += g_v
            exc = max(0, W[0] - maxw[0]) + max(0, W[1] - maxw[1])
            feas = exc == 0
            better = False
            if feas and not best_feas:
                better = True
            elif feas == best_feas:
                if feas:
                    better = cum > best_cum
                else:
                    better = exc < best_exc or (exc == best_exc and cum > best_cum)
            if better:
                best_cum, best_idx = cum, len(moves)
                best_feas, best_exc = feas, exc
                stalls = 0
            else:
                stalls += 1
                if stalls > stall_window:
                    break

        for v in reversed(moves[best_idx:]):
            part_l[v] = 1 - part_l[v]
        part = np.asarray(part_l, dtype=INDEX_DTYPE)
        cut -= best_cum if best_idx > 0 else 0
        if best_idx == 0 or best_cum <= 0:
            break
    return part, cut


def ggg_bisection(
    g: Graph, target0: int, max0: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy graph growing: BFS-like growth of part 0 by best gain."""
    nv = g.num_vertices
    part = np.ones(nv, dtype=INDEX_DTYPE)
    if nv == 0:
        return part
    xadj = g.xadj.tolist()
    adj = g.adj.tolist()
    wgt = g.adjwgt.tolist()
    vw = g.vwgt.tolist()
    # gain of moving v into part 0 under the all-ones start: every
    # neighbour is internal, so gain = -weighted_degree(v)
    gains = _graph_gains(g, part).tolist()
    in_q = [False] * nv
    placed = [False] * nv
    bound = 1
    if len(g.adj):
        src = np.repeat(np.arange(nv, dtype=INDEX_DTYPE), np.diff(g.xadj))
        wd = np.zeros(nv, dtype=np.int64)
        np.add.at(wd, src, g.adjwgt)
        bound = max(int(wd.max()), 1)
    bucket = GainBucket(nv, bound)
    W0 = 0
    seed = int(rng.integers(nv))
    bucket.insert(seed, gains[seed])
    in_q[seed] = True
    while W0 < target0:
        cap = max0 - W0
        v = bucket.pop_best(lambda u: vw[u] <= cap)
        if v is None:
            # grow from a fresh random seed in the unplaced region
            rest = [u for u in range(nv) if not placed[u] and not in_q[u] and vw[u] <= cap]
            if not rest:
                break
            v = rest[int(rng.integers(len(rest)))]
        in_q[v] = False
        placed[v] = True
        part[v] = 0
        W0 += vw[v]
        for t in range(xadj[v], xadj[v + 1]):
            u = adj[t]
            if placed[u]:
                continue
            delta = 2 * wgt[t]
            gains[u] += delta
            if in_q[u]:
                bucket.adjust(u, delta)
            else:
                bucket.insert(u, gains[u])
                in_q[u] = True
    return part


def multilevel_graph_bisect(
    g: Graph,
    targets: tuple[int, int],
    epsilon: float,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Multilevel bisection of *g*; returns ``(part01, cut)``."""
    t0, t1 = int(targets[0]), int(targets[1])
    maxw = (int(t0 * (1 + epsilon)), int(t1 * (1 + epsilon)))
    levels: list[tuple[Graph, np.ndarray]] = []
    cur = g
    total = max(g.total_vertex_weight(), 1)
    max_cluster_weight = max(total // max(cfg.coarsen_to // 2, 1), 1)
    for _ in range(cfg.max_coarsen_levels):
        if cur.num_vertices <= cfg.coarsen_to:
            break
        cmap, nc = heavy_edge_matching(cur, rng, max_cluster_weight)
        if nc >= cfg.min_coarsen_shrink * cur.num_vertices:
            break
        coarse = contract(cur, cmap, nc)
        levels.append((cur, cmap))
        cur = coarse

    best_part, best_key = None, None
    for s in range(cfg.n_initial_starts):
        if s % 3 == 2:
            raw = random_graph_bisection(cur, t0, maxw[0], rng)
        else:
            raw = ggg_bisection(cur, t0, maxw[0], rng)
        p, c = fm_refine_graph(cur, raw, maxw, cfg, rng)
        w0 = int(cur.vwgt[p == 0].sum())
        w1 = cur.total_vertex_weight() - w0
        excess = max(0, w0 - maxw[0]) + max(0, w1 - maxw[1])
        key = (excess, c)
        if best_key is None or key < best_key:
            best_part, best_key = p, key
    part = best_part
    for fine, cmap in reversed(levels):
        part = part[cmap]
        part, _ = fm_refine_graph(fine, part, maxw, cfg, rng)
    return part, edge_cut(g, part)
