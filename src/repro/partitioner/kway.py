"""Direct K-way greedy refinement of the connectivity-minus-one cutsize.

Recursive bisection never reconsiders a vertex's side once a bisection has
placed it.  This pass does: it sweeps the boundary vertices in random order
and greedily moves each to the connected part with the largest positive
cutsize gain, subject to the balance bound.  It is the "planned
modification" flavour of improvement PaToH later shipped; here it is an
optional ablation (``PartitionerConfig.kway_refine``).

Gain of moving v from part p to part q under Eq. 3 (unit treatment per net
of cost c):

* net has ``count[p] == 1``: the move removes p from the net's connectivity
  set → gain ``+c``;
* net has ``count[q] == 0``: the move adds q → gain ``-c``.

Both counts are maintained in an ``N x K`` dense matrix — affordable for
the paper's K ≤ 64.

A boundary of at least :data:`_KWAY_VECTOR_MIN` vertices takes the
*flat-sweep* route, which batch-scores a whole permutation chunk at once:
``g(v, q) = gain_remove(v) - total_cost(v) + connected_cost(v, q)`` falls
out of one gather of the counts matrix plus segmented reductions, and any
vertex whose best exact gain is ≤ 0 provably cannot move (the balance
bound only removes candidates), so the sequential pass skips it without
touching any state.  Vertices with a positive candidate — or whose nets
were touched by an earlier move in the same chunk, invalidating their
batch score — run the ordinary reference body, which keeps the flat
sweep bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng, multi_arange
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder

__all__ = ["kway_refine"]

#: vertices per batch-scoring chunk of the flat sweep; shorter chunks waste
#: numpy call overhead, longer ones go stale faster (a move invalidates
#: the batch scores of every later vertex sharing one of its nets)
_KWAY_CHUNK = 4096

#: below this first-pass boundary size the reference sweep wins outright;
#: the seam a test patches to force either sweep
_KWAY_VECTOR_MIN = 64


def _move_one(
    v: int,
    part_l: list[int],
    counts: np.ndarray,
    W: np.ndarray,
    maxw: int,
    wl: list[int],
    cost: list[int],
    xnets: list[int],
    vnets: list[int],
) -> tuple[int, list[int] | None]:
    """The reference per-vertex body: score, select, and (maybe) apply one
    greedy move.  Returns ``(gain, touched_nets)`` — gain 0 means no move.
    """
    p = part_l[v]
    nets_v = vnets[xnets[v] : xnets[v + 1]]
    # candidate parts: those connected through v's nets
    gain_remove = 0
    cand: dict[int, int] = {}
    for n in nets_v:
        row = counts[n]
        c = cost[n]
        if row[p] == 1:
            gain_remove += c
        for q in np.flatnonzero(row):
            q = int(q)
            if q != p:
                cand[q] = cand.get(q, 0) + c
    best_q, best_gain = -1, 0
    wv = wl[v]
    for q, conn in cand.items():
        if W[q] + wv > maxw:
            continue
        # gain = (nets leaving p) - (nets newly entering q)
        loss = 0
        for n in nets_v:
            if counts[n, q] == 0:
                loss += cost[n]
        g = gain_remove - loss
        if g > best_gain:
            best_q, best_gain = q, g
    if best_q < 0:
        return 0, None
    for n in nets_v:
        counts[n, p] -= 1
        counts[n, best_q] += 1
    W[p] -= wv
    W[best_q] += wv
    part_l[v] = best_q
    return best_gain, nets_v


def _kway_pass_ref(
    perm: np.ndarray,
    part_l: list[int],
    counts: np.ndarray,
    W: np.ndarray,
    maxw: int,
    wl: list[int],
    cost: list[int],
    xnets: list[int],
    vnets: list[int],
) -> tuple[int, int]:
    """One reference sweep over *perm*."""
    moved = 0
    gained = 0
    for v in perm.tolist():
        g, _ = _move_one(int(v), part_l, counts, W, maxw, wl, cost, xnets, vnets)
        if g:
            moved += 1
            gained += g
    return moved, gained


def _kway_pass_flat(
    h: Hypergraph,
    k: int,
    perm: np.ndarray,
    part_l: list[int],
    counts: np.ndarray,
    W: np.ndarray,
    maxw: int,
    wl: list[int],
    cost: list[int],
    xnets: list[int],
    vnets: list[int],
) -> tuple[int, int]:
    """One flat sweep: batch-score chunks, skip provably-unmovable
    vertices, run the reference body for the rest (see module docstring
    for the exactness argument)."""
    xnets_np, vnets_np = h.xnets, h.vnets
    cost_np = np.asarray(h.net_costs, dtype=np.int64)
    touch = [-1] * h.num_nets  # move index that last changed each net
    move_no = 0
    moved = 0
    gained = 0
    NEG = np.int64(-(1 << 60))
    for lo in range(0, len(perm), _KWAY_CHUNK):
        chunk = perm[lo : lo + _KWAY_CHUNK].astype(np.int64)
        m = len(chunk)
        deg = xnets_np[chunk + 1] - xnets_np[chunk]
        starts = np.zeros(m, dtype=np.int64)
        np.cumsum(deg[:-1], out=starts[1:])
        ns = vnets_np[multi_arange(xnets_np[chunk], deg)]
        C = counts[ns]  # (E, k) gather of the live counts matrix
        cpos = C > 0
        ce = cost_np[ns]
        conn = np.add.reduceat(cpos * ce[:, None], starts, axis=0)
        candq = np.add.reduceat(cpos, starts, axis=0) > 0
        totc = np.add.reduceat(ce, starts)
        p_arr = np.fromiter(
            (part_l[v] for v in chunk.tolist()), dtype=np.int64, count=m
        )
        crit = ce * (C[np.arange(len(ns)), np.repeat(p_arr, deg)] == 1)
        gain_remove = np.add.reduceat(crit, starts)
        g = gain_remove[:, None] - totc[:, None] + conn
        g = np.where(candq, g, NEG)
        g[np.arange(m), p_arr] = NEG
        gmax = g.max(axis=1)

        chunk_t = move_no  # scores are valid for nets untouched since here
        hot = gmax > 0
        for j, v in enumerate(chunk.tolist()):
            nets_v = vnets[xnets[v] : xnets[v + 1]]
            fresh = True
            for n in nets_v:
                if touch[n] >= chunk_t:
                    fresh = False
                    break
            if fresh and not hot[j]:
                # exact batch gain ≤ 0 for every candidate: the balance
                # bound can only shrink the candidate set, so the
                # reference body would not move v either — skip it
                continue
            g1, mnets = _move_one(
                v, part_l, counts, W, maxw, wl, cost, xnets, vnets
            )
            if g1:
                moved += 1
                gained += g1
                for n in mnets:
                    touch[n] = move_no
                move_no += 1
    return moved, gained


def kway_refine(
    h: Hypergraph,
    part: np.ndarray,
    k: int,
    cfg: PartitionerConfig,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy K-way boundary refinement; returns an improved part vector.

    Only strictly positive-gain, balance-preserving moves are applied, so
    the cutsize never increases and Eq. 1 feasibility is preserved.

    The route (``flat-sweep`` or ``reference``) is fixed for the whole
    call from the first pass's boundary size; both sweeps move the same
    vertices, so the choice affects speed only.
    """
    rng = as_rng(rng)
    part = np.asarray(part, dtype=INDEX_DTYPE).copy()
    nv, nn = h.num_vertices, h.num_nets
    if nv == 0 or nn == 0 or k <= 1:
        return part

    net_of_pin = h.net_of_pin()
    counts = np.zeros((nn, k), dtype=np.int32)
    np.add.at(counts, (net_of_pin, part[h.pins]), 1)

    w = h.vertex_weights
    W = np.bincount(part, weights=w, minlength=k).astype(np.int64)
    maxw = int((w.sum() / k) * (1.0 + cfg.epsilon))

    xnets = h.xnets_list()
    vnets = h.vnets_list()
    cost = h.costs_list()
    wl = h.weights_list()
    part_l = part.tolist()
    free = np.ones(nv, dtype=bool)
    if fixed is not None:
        free &= fixed < 0

    rec = get_recorder()
    with rec.span("kway", k=k, vertices=nv, nets=nn, pins=h.num_pins) as sp:
        flat = None
        for _ in range(cfg.kway_passes):
            # boundary = vertices on some net with connectivity > 1
            lam = (counts > 0).sum(axis=1)
            cut_net = lam > 1
            bnd = np.unique(h.pins[cut_net[net_of_pin]])
            bnd = bnd[free[bnd]]
            if len(bnd) == 0:
                break
            perm = rng.permutation(bnd)
            if flat is None:
                flat = len(bnd) >= _KWAY_VECTOR_MIN
                sp.set(route="flat-sweep" if flat else "reference")
            if flat:
                moved, gained = _kway_pass_flat(
                    h, k, perm, part_l, counts, W, maxw, wl, cost,
                    xnets, vnets,
                )
            else:
                moved, gained = _kway_pass_ref(
                    perm, part_l, counts, W, maxw, wl, cost, xnets, vnets
                )
            if rec.enabled:
                rec.add("kway.passes")
                rec.add("kway.moves", moved)
                rec.add("kway.cut_delta", gained)
            if not moved:
                break
    return np.asarray(part_l, dtype=INDEX_DTYPE)
