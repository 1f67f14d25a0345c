"""Multilevel recursive-bisection graph partitioner (MeTiS analogue).

Pipeline (same family as pmetis, which the paper uses for the standard
graph model):

1. **Coarsening** — heavy-edge matching (HEM): random vertex order, each
   unmatched vertex pairs with its unmatched neighbour of maximum edge
   weight; the coarse graph contracts matched pairs, merging parallel edges
   by summing weights and dropping self loops.
2. **Initial bisection** — greedy graph growing (GGG) from random seeds and
   random balanced assignments, several starts, each FM-refined; the best
   feasible bisection wins.
3. **Uncoarsening** — projection plus boundary FM refinement of the
   edge-cut metric with gain buckets.
4. **K-way** — recursive bisection; removed cut edges make the total edge
   cut the sum of the bisection cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._util import INDEX_DTYPE, Timer, as_rng
from repro.graph.graph import Graph
from repro.graph.metrics import edge_cut, graph_imbalance, validate_graph_partition
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.gainbucket import GainBucket

__all__ = ["GraphPartitionResult", "partition_graph"]


# ----------------------------------------------------------------------
# coarsening
# ----------------------------------------------------------------------
def heavy_edge_matching(
    g: Graph, rng: np.random.Generator, max_cluster_weight: int
) -> tuple[np.ndarray, int]:
    """Heavy-edge matching; returns ``(cmap, n_coarse)``."""
    nv = g.num_vertices
    xadj = g.xadj.tolist()
    adj = g.adj.tolist()
    wgt = g.adjwgt.tolist()
    vw = g.vwgt.tolist()
    match = [-1] * nv
    cmap = [-1] * nv
    nc = 0
    for v in rng.permutation(nv):
        v = int(v)
        if match[v] != -1:
            continue
        best_u, best_w = -1, -1
        wv = vw[v]
        for t in range(xadj[v], xadj[v + 1]):
            u = adj[t]
            if match[u] == -1 and wgt[t] > best_w and vw[u] + wv <= max_cluster_weight:
                best_u, best_w = u, wgt[t]
        if best_u == -1:
            match[v] = v
            cmap[v] = nc
        else:
            match[v] = best_u
            match[best_u] = v
            cmap[v] = cmap[best_u] = nc
        nc += 1
    return np.asarray(cmap, dtype=INDEX_DTYPE), nc


def contract(g: Graph, cmap: np.ndarray, nc: int) -> Graph:
    """Contract *g* along *cmap*: merge parallel edges, drop self loops."""
    cw = np.bincount(cmap, weights=g.vwgt, minlength=nc).astype(INDEX_DTYPE)
    src = np.repeat(np.arange(g.num_vertices, dtype=INDEX_DTYPE), np.diff(g.xadj))
    cs = cmap[src]
    cd = cmap[g.adj]
    keep = cs != cd
    cs, cd, w = cs[keep], cd[keep], g.adjwgt[keep]
    key = cs * nc + cd
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    w_s = w[order]
    if len(key_s):
        new_edge = np.empty(len(key_s), dtype=bool)
        new_edge[0] = True
        new_edge[1:] = key_s[1:] != key_s[:-1]
        group = np.cumsum(new_edge) - 1
        merged_w = np.bincount(group, weights=w_s).astype(INDEX_DTYPE)
        uniq_key = key_s[new_edge]
        usrc = uniq_key // nc
        udst = uniq_key % nc
    else:
        merged_w = np.empty(0, dtype=INDEX_DTYPE)
        usrc = udst = np.empty(0, dtype=INDEX_DTYPE)
    xadj = np.zeros(nc + 1, dtype=INDEX_DTYPE)
    np.add.at(xadj, usrc + 1, 1)
    np.cumsum(xadj, out=xadj)
    return Graph(nc, xadj, udst, adjwgt=merged_w, vwgt=cw, validate=False)


# ----------------------------------------------------------------------
# FM refinement (edge cut)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# initial bisection
# ----------------------------------------------------------------------
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


def random_graph_bisection(
    g: Graph, target0: int, max0: int, rng: np.random.Generator
) -> np.ndarray:
    """Random balanced bisection."""
    part = np.ones(g.num_vertices, dtype=INDEX_DTYPE)
    W0 = 0
    vw = g.vwgt
    for v in rng.permutation(g.num_vertices):
        if W0 >= target0:
            break
        if W0 + int(vw[v]) <= max0:
            part[int(v)] = 0
            W0 += int(vw[v])
    return part


# ----------------------------------------------------------------------
# multilevel bisection and recursion
# ----------------------------------------------------------------------
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


def _extract_graph_side(g: Graph, part01: np.ndarray, side: int) -> tuple[Graph, np.ndarray]:
    vmask = part01 == side
    ids = np.flatnonzero(vmask)
    old2new = np.full(g.num_vertices, -1, dtype=INDEX_DTYPE)
    old2new[ids] = np.arange(len(ids), dtype=INDEX_DTYPE)
    src = np.repeat(np.arange(g.num_vertices, dtype=INDEX_DTYPE), np.diff(g.xadj))
    keep = vmask[src] & vmask[g.adj]
    s = old2new[src[keep]]
    d = old2new[g.adj[keep]]
    w = g.adjwgt[keep]
    xadj = np.zeros(len(ids) + 1, dtype=INDEX_DTYPE)
    np.add.at(xadj, s + 1, 1)
    np.cumsum(xadj, out=xadj)
    order = np.argsort(s, kind="stable")
    sub = Graph(
        len(ids), xadj, d[order], adjwgt=w[order], vwgt=g.vwgt[ids], validate=False
    )
    return sub, ids


def _recurse(
    g: Graph, k: int, cfg: PartitionerConfig, rng: np.random.Generator, eps_b: float
) -> np.ndarray:
    if k == 1:
        return np.zeros(g.num_vertices, dtype=INDEX_DTYPE)
    k1 = (k + 1) // 2
    k2 = k - k1
    total = g.total_vertex_weight()
    t0 = int(round(total * k1 / k))
    part01, _ = multilevel_graph_bisect(g, (t0, total - t0), eps_b, cfg, rng)
    part = np.zeros(g.num_vertices, dtype=INDEX_DTYPE)
    for side, k_side, offset in ((0, k1, 0), (1, k2, k1)):
        sub, ids = _extract_graph_side(g, part01, side)
        part[ids] = offset + _recurse(sub, k_side, cfg, rng, eps_b)
    return part


@dataclass
class GraphPartitionResult:
    """Outcome of :func:`partition_graph`."""

    part: np.ndarray
    k: int
    edge_cut: int
    imbalance: float
    runtime: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"K={self.k} edgecut={self.edge_cut} "
            f"imbalance={100 * self.imbalance:.2f}% time={self.runtime:.2f}s"
        )


def partition_graph(
    g: Graph,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> GraphPartitionResult:
    """K-way graph partitioning minimizing edge cut under Eq. 1 balance."""
    cfg = config or PartitionerConfig()
    rng = as_rng(seed)
    if k < 1:
        raise ValueError("k must be >= 1")
    levels = max(int(math.ceil(math.log2(max(k, 2)))), 1)
    eps_b = (1.0 + cfg.epsilon) ** (1.0 / levels) - 1.0

    with Timer("graph.partition", k=k) as t:
        part = _recurse(g, k, cfg, rng, eps_b)
    validate_graph_partition(g, part, k)
    return GraphPartitionResult(
        part=part,
        k=k,
        edge_cut=edge_cut(g, part),
        imbalance=graph_imbalance(g, part, k),
        runtime=t.elapsed,
    )
