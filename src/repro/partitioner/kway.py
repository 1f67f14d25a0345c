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

One sweep, :func:`_kway_pass`, visits the boundary in random order.  It
skips v unless some net of v with nonzero cost has ``count[p] == 1``.
The skip is exact: :class:`Hypergraph` rejects negative costs, so with
``gain_remove == 0`` every candidate's gain is ``-loss <= 0`` and nothing
moves.  Otherwise it gathers ``rows = counts[nets_v]`` once and scores
every part at once, ``g = c @ (rows[:, p] == 1) - c @ (rows == 0)``, then
takes the feasible part with the largest positive gain.  Ties go to the
part the per-vertex reference :func:`_move_one` meets first: the smallest
index of a net of v holding it, then the smallest part id.  The sweep
therefore moves the same vertices to the same parts as the reference
sweep :func:`_kway_pass_ref`, which the tests diff it against by
patching ``_kway_pass``.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder

__all__ = ["kway_refine"]


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


def _kway_pass(
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
    """One production sweep over *perm*: moves the same vertices to the
    same parts as :func:`_kway_pass_ref` (see the module docstring)."""
    vnets_np = np.asarray(vnets, dtype=np.intp)
    cost_np = np.asarray(cost, dtype=np.int64)
    moved = 0
    gained = 0
    for v in perm.tolist():
        p = part_l[v]
        lo, hi = xnets[v], xnets[v + 1]
        for n in vnets[lo:hi]:
            if counts[n, p] == 1 and cost[n]:
                break
        else:
            continue  # gain_remove == 0: no part has a positive gain
        nets_v = vnets_np[lo:hi]
        rows = counts[nets_v]
        c = cost_np[nets_v]
        present = rows > 0
        wv = wl[v]
        g = c @ (rows[:, p] == 1) - c @ (rows == 0)
        ok = present.any(axis=0) & (W + wv <= maxw)
        ok[p] = False
        g = np.where(ok, g, 0)
        best = int(g.max())
        if best <= 0:
            continue
        # ties: the part the reference meets first — smallest first-net
        # index, then smallest part id (argmin keeps the first minimum)
        tie = np.flatnonzero(g == best)
        q = int(tie[present[:, tie].argmax(axis=0).argmin()])
        # pins are unique per net, so nets_v has no repeats
        counts[nets_v, p] -= 1
        counts[nets_v, q] += 1
        W[p] -= wv
        W[q] += wv
        part_l[v] = q
        moved += 1
        gained += best
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
    with rec.span("kway", k=k, vertices=nv, nets=nn, pins=h.num_pins):
        for _ in range(cfg.kway_passes):
            # boundary = vertices on some net with connectivity > 1
            lam = (counts > 0).sum(axis=1)
            cut_net = lam > 1
            bnd = np.unique(h.pins[cut_net[net_of_pin]])
            bnd = bnd[free[bnd]]
            if len(bnd) == 0:
                break
            perm = rng.permutation(bnd)
            moved, gained = _kway_pass(
                perm, part_l, counts, W, maxw, wl, cost, xnets, vnets
            )
            if rec.enabled:
                rec.add("kway.passes")
                rec.add("kway.moves", moved)
                rec.add("kway.cut_delta", gained)
            if not moved:
                break
    return np.asarray(part_l, dtype=INDEX_DTYPE)
