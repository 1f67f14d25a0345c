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

FM and growing run on :class:`GraphCore`, which gives the hypergraph FM
pass (``refine._fm_pass``) and bucket store (``refine.FMBuckets``) an
edge-cut move body; one core serves a growing start and its FM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import INDEX_DTYPE, Timer, as_rng, prefix_from_counts
from repro.graph.graph import Graph
from repro.graph.metrics import edge_cut, graph_imbalance, validate_graph_partition
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.refine import _NO_FLOOR, FMBuckets, _excess, _fm_pass
from repro.telemetry import get_recorder

__all__ = ["GraphPartitionResult", "partition_graph"]


# ----------------------------------------------------------------------
# coarsening
# ----------------------------------------------------------------------
def heavy_edge_matching(
    g: Graph, rng: np.random.Generator, max_cluster_weight: int
) -> tuple[np.ndarray, int]:
    """Heavy-edge matching; returns ``(cmap, n_coarse)``."""
    nv = g.num_vertices
    xadj = g.xadj_list()
    adj = g.adj_list()
    wgt = g.adjwgt.tolist()
    vw = g.vwgt_list()
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
    cs = cmap[g.source()]
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
    xadj = prefix_from_counts(np.bincount(usrc, minlength=nc))
    return Graph(nc, xadj, udst, adjwgt=merged_w, vwgt=cw, validate=False)


# ----------------------------------------------------------------------
# FM refinement and greedy growing (edge cut)
# ----------------------------------------------------------------------
class GraphCore:
    """Move engine for 2-way FM and greedy growing on the edge-cut metric.

    Offers the interface :func:`repro.partitioner.refine._fm_pass` drives
    (the one FM pass of both models) and keeps the same state as
    :class:`~repro.partitioner.refine.FMCore`: the part vector, the part
    weights ``W``, the per-vertex gains, which vertices may still move,
    and the flat two-sided gain-bucket store :attr:`bk`.  Only the move
    body differs: moving ``v`` changes the gain of each neighbour across
    an edge of weight ``w`` by ``+2w`` if it is on ``v``'s side (the edge
    becomes cut) and by ``-2w`` if not (the edge becomes uncut).

    Where :class:`FMCore` keeps per-net pin counts, this core derives
    per-edge cut flags from the part array when a pass starts
    (:meth:`cut_state`).
    """

    def __init__(self, g: Graph, part: np.ndarray) -> None:
        self.g = g
        self.nv = g.num_vertices
        self.xadj = g.xadj_list()
        self.adj = g.adj_list()
        self.wgt2 = g.adjwgt2_list()
        self.w = g.vwgt_list()
        self.vwgt = g.vwgt
        pa = np.asarray(part, dtype=INDEX_DTYPE)
        self.part: list[int] = pa.tolist()
        #: the graph model has no fixed vertices
        self.free = np.ones(self.nv, dtype=bool)
        w1 = int(g.vwgt[pa == 1].sum())
        self.W = [g.total_vertex_weight() - w1, w1]
        cut = self.cut_state(pa)
        #: ``(edge cut, (part array, cut flags))`` as construction computed
        #: them, for the caller that built the core to hand to its first
        #: pass before it moves (cf. ``FMCore.setup``)
        self.setup = (int(g.adjwgt[cut].sum()) // 2, (pa, cut))
        self.gain: list[int] = [0] * self.nv
        self.movable: list[bool] = [True] * self.nv
        self.bk = bk = FMBuckets(self.gain, g.max_weighted_degree())
        #: every list :meth:`apply_move` reads or writes, bound once (cf.
        #: ``FMCore._moves``)
        self._moves = (
            self.part, self.gain, self.movable, self.W, self.w, self.xadj,
            self.adj, self.wgt2, bk, bk.heads, bk.nxt, bk.prv, bk.inside,
            bk.top, bk.count, bk.wfloor, bk.base,
        )

    def part_array(self) -> np.ndarray:
        """The part vector as a numpy array (copy)."""
        return np.asarray(self.part, dtype=INDEX_DTYPE)

    def cut_state(self, pa: np.ndarray | None = None) -> np.ndarray:
        """Whether each adjacency entry's edge is cut under *pa* (default:
        the current part vector)."""
        if pa is None:
            pa = self.part_array()
        return pa[self.g.source()] != pa[self.g.adj]

    def compute_all_gains(
        self, pa: np.ndarray | None = None, cut: np.ndarray | None = None
    ) -> np.ndarray:
        """FM gain of every vertex: external minus internal weighted degree.

        *cut* is :meth:`cut_state` of *pa*, if the caller has it.  Stores
        the gains in :attr:`gain` (in place: the buckets read that list)
        and returns them as an array.
        """
        g = self.g
        if cut is None:
            cut = self.cut_state(pa)
        signed = np.where(cut, g.adjwgt, -g.adjwgt)
        # exact: float64 sums of integers far below 2**53
        gains = np.bincount(
            g.source(), weights=signed, minlength=self.nv
        ).astype(np.int64)
        self.gain[:] = gains.tolist()
        return gains

    def boundary_vertices(self, cut: np.ndarray | None = None) -> np.ndarray:
        """Vertices with at least one cut edge (*cut* as in
        :meth:`compute_all_gains`)."""
        if cut is None:
            cut = self.cut_state()
        return np.unique(self.g.source()[cut])

    def apply_move(self, v: int) -> None:
        """Move vertex *v* to the other side and lock it there.

        Unlinks *v* from :attr:`bk` if it is stored and marks it not
        movable.  Then walks *v*'s adjacency list in order and changes the
        gain of each movable neighbour by ``±2w``, relinking it in
        :attr:`bk` if it is stored (and, in touch mode, linking it if
        not).  A zero-weight edge still relinks its neighbour: that moves
        it to the head of its chain, so it is not skipped.
        """
        (
            part, gain, movable, W, w, xadj, adj, wgt2, bk,
            heads, nxt, prv, inside, top, count, wfloor, base,
        ) = self._moves
        frm = part[v]
        to = 1 - frm
        base_f, base_t = base[frm], base[to]
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
        lo, hi = xadj[v], xadj[v + 1]
        for u, d in zip(adj[lo:hi], wgt2[lo:hi]):
            if not movable[u]:
                continue
            if part[u] == frm:
                s, base = frm, base_f
            else:
                d, s, base = -d, to, base_t
            g = gain[u]
            if inside[u]:
                nx, pv = nxt[u], prv[u]
                if pv != -1:
                    nxt[pv] = nx
                else:
                    heads[base + g] = nx
                if nx != -1:
                    prv[nx] = pv
            elif touch:
                inside[u] = True
                count[s] += 1
                wfloor[s] = _NO_FLOOR
            else:
                gain[u] = g + d
                continue
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
        part[v] = to
        wv = w[v]
        W[frm] -= wv
        W[to] += wv
        # v's own gain simply flips sign for the reverse move
        gain[v] = -gain[v]

    def undo_moves(self, moves: list[int]) -> None:
        """Reverse *moves* (latest first) without gain maintenance."""
        part, W, w = self.part, self.W, self.w
        for v in reversed(moves):
            frm = part[v]  # side v is on now
            part[v] = 1 - frm
            W[frm] -= w[v]
            W[1 - frm] += w[v]


def fm_refine_graph(
    g: Graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Boundary FM on the edge-cut metric; returns ``(part, cut)``."""
    core = GraphCore(g, part)
    cut, arrays = core.setup
    cut = _refine(core, cut, max_weights, cfg, rng, arrays)
    return core.part_array(), cut


def _refine(
    core: GraphCore,
    cut: int,
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    arrays: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Run up to ``cfg.fm_passes`` FM passes on *core*, whose current edge
    cut is *cut*; returns the cut after them.  The core holds the result.

    Unlike hypergraph FM (``refine.fm_refine_core``), the graph stops after
    any pass that keeps no move or does not lower the cut.
    """
    maxw = (int(max_weights[0]), int(max_weights[1]))
    cut0 = cut
    passes = moves = rollbacks = 0
    for _ in range(cfg.fm_passes):
        gain, kept, undone = _fm_pass(core, maxw, cfg, rng, arrays)
        arrays = None
        cut -= gain
        passes += 1
        moves += kept
        rollbacks += undone
        if not kept or gain <= 0:
            break
    rec = get_recorder()
    rec.add("fm.passes", passes)
    rec.add("fm.moves", moves)
    rec.add("fm.rollbacks", rollbacks)
    rec.add("fm.cut_delta", cut0 - cut)
    return cut


# ----------------------------------------------------------------------
# initial bisection
# ----------------------------------------------------------------------
def _grow(
    g: Graph, target0: int, max0: int, rng: np.random.Generator
) -> tuple[GraphCore, int]:
    """Greedy graph growing of part 0 from a random seed; returns the core
    it grew and its edge cut."""
    nv = g.num_vertices
    core = GraphCore(g, np.ones(nv, dtype=INDEX_DTYPE))
    if nv == 0:
        return core, 0
    # gain of moving v into part 0 under the all-ones start: every
    # neighbour is internal, so gain = -weighted_degree(v)
    core.compute_all_gains(*core.setup[1])
    gain, movable, w, W = core.gain, core.movable, core.w, core.W
    bk = core.bk
    seed = int(rng.integers(nv))
    bk.load(np.array([seed]), 1, np.array([gain[seed]]), touch=True)
    cut = 0
    while W[0] < target0:
        cap = max0 - W[0]
        # side 0 is never stored, so this is side 1's capped walk
        v = bk.pick(w, 0, cap, False)
        if v is None:
            # grow from a fresh random seed in the unplaced region (every
            # queued vertex is over the cap, so none is in *rest*, and the
            # move only locks it)
            rest = [u for u in range(nv) if movable[u] and w[u] <= cap]
            if not rest:
                break
            v = rest[int(rng.integers(len(rest)))]
        cut -= gain[v]
        core.apply_move(v)
    return core, cut


def ggg_bisection(
    g: Graph, target0: int, max0: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy graph growing: BFS-like growth of part 0 by best gain."""
    return _grow(g, target0, max0, rng)[0].part_array()


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
        # a growing start's FM refines the core it grew
        if s % 3 == 2:
            core = GraphCore(cur, random_graph_bisection(cur, t0, maxw[0], rng))
            c, arrays = core.setup
        else:
            core, c = _grow(cur, t0, maxw[0], rng)
            arrays = None
        c = _refine(core, c, maxw, cfg, rng, arrays)
        key = (_excess(core.W, maxw), c)
        if best_key is None or key < best_key:
            best_part, best_key = core.part_array(), key
    # projection keeps the edge cut, and FM tracks it exactly
    part, cut = best_part, best_key[1]
    for fine, cmap in reversed(levels):
        part, cut = fm_refine_graph(fine, part[cmap], maxw, cfg, rng)
    return part, cut


def _extract_graph_side(g: Graph, part01: np.ndarray, side: int) -> tuple[Graph, np.ndarray]:
    vmask = part01 == side
    ids = np.flatnonzero(vmask)
    old2new = np.full(g.num_vertices, -1, dtype=INDEX_DTYPE)
    old2new[ids] = np.arange(len(ids), dtype=INDEX_DTYPE)
    src = g.source()
    keep = vmask[src] & vmask[g.adj]
    s = old2new[src[keep]]
    d = old2new[g.adj[keep]]
    w = g.adjwgt[keep]
    xadj = prefix_from_counts(np.bincount(s, minlength=len(ids)))
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
