"""The ``jit`` kernel tier: numba-compiled FM refinement and matching.

A sequential port of the reference hot loops
(:func:`repro.partitioner.refine._fm_pass` + ``FMCore.apply_move`` and
:func:`repro.partitioner.coarsen._match_scalar`) onto flat numpy arrays,
written in the numba ``nopython`` subset.  When numba is importable the
functions are compiled at import time; when it is not, they remain plain
Python functions — far too slow to use in anger (the kernel resolver
falls back to ``flat``), but exactly executable, which is how the test
suite asserts the jit tier's bit-identity without numba installed.

``import repro`` never requires numba: the import of this module is
probe-guarded behind :func:`repro.partitioner.kernels.kernel_available`.

Structure notes (numba constraints, not style):

* the two gain buckets are classic doubly-linked bucket lists over
  ``(2, n)`` arrays — one row per side — with ``(2,)`` arrays for the
  max-bucket pointer and entry count, because scalars cannot be passed
  by reference;
* the bucket gain of a stored vertex always equals its global gain
  (the reference maintains the same invariant through ``FMCore._bump``),
  so no separate per-bucket gain array is needed;
* growable outputs (clusters) are preallocated to the vertex count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_ERROR",
    "fm_pass_jit",
    "match_jit",
    "warmup",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
    NUMBA_ERROR = None

    def _jit(fn):
        return numba.njit(nogil=True)(fn)

except ImportError as _exc:  # numba optional: interpreted fallback
    NUMBA_AVAILABLE = False
    NUMBA_ERROR = str(_exc)

    def _jit(fn):
        return fn


def _bump(
    u, delta, part, gain, heads, nxt, prv, inside,
    locked, free, offset, insert_on_touch, maxptr, count,
):
    """Gain delta on vertex *u*, relinking its bucket entry (reference:
    ``FMCore._bump``)."""
    gold = gain[u]
    g = gold + delta
    gain[u] = g
    s = part[u]
    b = g + offset
    if inside[s, u]:
        nx = nxt[s, u]
        pv = prv[s, u]
        if pv != -1:
            nxt[s, pv] = nx
        else:
            heads[s, gold + offset] = nx
        if nx != -1:
            prv[s, nx] = pv
        hd = heads[s, b]
        nxt[s, u] = hd
        prv[s, u] = -1
        if hd != -1:
            prv[s, hd] = u
        heads[s, b] = u
        if b > maxptr[s]:
            maxptr[s] = b
    elif insert_on_touch and not locked[u] and free[u]:
        hd = heads[s, b]
        nxt[s, u] = hd
        prv[s, u] = -1
        if hd != -1:
            prv[s, hd] = u
        heads[s, b] = u
        inside[s, u] = True
        count[s] += 1
        if b > maxptr[s]:
            maxptr[s] = b


def _best_capped(s, cap, heads, nxt, maxptr, count, w):
    """Reference: ``GainBucket.best_capped`` — returns -1 for None."""
    if count[s] == 0:
        return -1
    m = maxptr[s]
    while m >= 0 and heads[s, m] == -1:
        m -= 1
    maxptr[s] = m
    for b in range(m, -1, -1):
        v = heads[s, b]
        while v != -1:
            if w[v] <= cap:
                return v
            v = nxt[s, v]
    return -1


def _best_feasible(s, to, heads, nxt, maxptr, count, w, W, maxw):
    """Reference: ``GainBucket.best`` under ``_fm_pass.feasible_to`` —
    weight cap plus the rescue-move rule for an overweight source."""
    if count[s] == 0:
        return -1
    cap = maxw[to] - W[to]
    frm = 1 - to
    over_frm = W[frm] > maxw[frm]
    m = maxptr[s]
    while m >= 0 and heads[s, m] == -1:
        m -= 1
    maxptr[s] = m
    for b in range(m, -1, -1):
        v = heads[s, b]
        while v != -1:
            wv = w[v]
            if wv <= cap:
                return v
            if over_frm:
                red = W[frm] - maxw[frm]
                if wv < red:
                    red = wv
                inc = W[to] + wv - maxw[to]
                if inc < 0:
                    inc = 0
                if inc < red:
                    return v
            v = nxt[s, v]
    return -1


def _fm_pass_arrays(
    xpins, pins, xnets, vnets, w, cost,
    part, pc, gain, locked, free, W, maxw,
    seq, offset, insert_on_touch, stall_window,
):
    """One full FM pass on flat arrays; mutates part/pc/gain/locked/W in
    place and returns ``(best_cum, best_idx, n_moves)``.

    A statement-for-statement port of ``_fm_pass`` + ``FMCore.apply_move``
    + ``FMCore.undo_move``; every loop visits vertices and pins in the
    same order as the reference, so the result is bit-identical.
    """
    nv = part.shape[0]
    nbuckets = 2 * offset + 1
    heads = np.full((2, nbuckets), -1, dtype=np.int64)
    nxt = np.full((2, nv), -1, dtype=np.int64)
    prv = np.full((2, nv), -1, dtype=np.int64)
    inside = np.zeros((2, nv), dtype=np.bool_)
    maxptr = np.full(2, -1, dtype=np.int64)
    count = np.zeros(2, dtype=np.int64)

    # sequential inserts reproduce bulk_insert's LIFO bucket order exactly
    for i in range(seq.shape[0]):
        v = seq[i]
        s = part[v]
        b = gain[v] + offset
        hd = heads[s, b]
        nxt[s, v] = hd
        prv[s, v] = -1
        if hd != -1:
            prv[s, hd] = v
        heads[s, b] = v
        inside[s, v] = True
        count[s] += 1
        if b > maxptr[s]:
            maxptr[s] = b

    e0 = W[0] - maxw[0]
    e1 = W[1] - maxw[1]
    exc0 = (e0 if e0 > 0 else 0) + (e1 if e1 > 0 else 0)
    moves = np.empty(nv, dtype=np.int64)
    n_moves = 0
    cum = 0
    best_cum = 0
    best_idx = 0
    best_feasible = exc0 == 0
    best_excess = exc0
    stalls = 0

    for _ in range(nv):
        if W[0] > maxw[0]:
            v0 = _best_feasible(0, 1, heads, nxt, maxptr, count, w, W, maxw)
        else:
            v0 = _best_capped(0, maxw[1] - W[1], heads, nxt, maxptr, count, w)
        if W[1] > maxw[1]:
            v1 = _best_feasible(1, 0, heads, nxt, maxptr, count, w, W, maxw)
        else:
            v1 = _best_capped(1, maxw[0] - W[0], heads, nxt, maxptr, count, w)
        if v0 == -1 and v1 == -1:
            break
        if v0 == -1:
            v = v1
        elif v1 == -1:
            v = v0
        else:
            g0 = gain[v0]
            g1 = gain[v1]
            if g0 > g1:
                v = v0
            elif g1 > g0:
                v = v1
            else:
                v = v0 if W[0] >= W[1] else v1

        # remove v from its bucket
        s = part[v]
        nx = nxt[s, v]
        pv = prv[s, v]
        if pv != -1:
            nxt[s, pv] = nx
        else:
            heads[s, gain[v] + offset] = nx
        if nx != -1:
            prv[s, nx] = pv
        inside[s, v] = False
        count[s] -= 1
        locked[v] = True
        g = gain[v]

        # apply_move(v, update_gains=True)
        frm = part[v]
        to = 1 - frm
        for ni in range(xnets[v], xnets[v + 1]):
            n = vnets[ni]
            c = cost[n]
            T = pc[to, n]
            F = pc[frm, n]
            if c != 0:
                lo = xpins[n]
                hi = xpins[n + 1]
                if T == 0:
                    for j in range(lo, hi):
                        u = pins[j]
                        if u != v and not locked[u] and free[u]:
                            _bump(u, c, part, gain, heads, nxt, prv, inside,
                                  locked, free, offset, insert_on_touch,
                                  maxptr, count)
                elif T == 1:
                    for j in range(lo, hi):
                        u = pins[j]
                        if part[u] == to:
                            if not locked[u] and free[u]:
                                _bump(u, -c, part, gain, heads, nxt, prv,
                                      inside, locked, free, offset,
                                      insert_on_touch, maxptr, count)
                            break
                if F == 1:
                    for j in range(lo, hi):
                        u = pins[j]
                        if u != v and not locked[u] and free[u]:
                            _bump(u, -c, part, gain, heads, nxt, prv, inside,
                                  locked, free, offset, insert_on_touch,
                                  maxptr, count)
                elif F == 2:
                    for j in range(lo, hi):
                        u = pins[j]
                        if u != v and part[u] == frm:
                            if not locked[u] and free[u]:
                                _bump(u, c, part, gain, heads, nxt, prv,
                                      inside, locked, free, offset,
                                      insert_on_touch, maxptr, count)
                            break
            pc[frm, n] = F - 1
            pc[to, n] = T + 1
        part[v] = to
        wv = w[v]
        W[frm] -= wv
        W[to] += wv
        gain[v] = -gain[v]

        moves[n_moves] = v
        n_moves += 1
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
                better = (exc < best_excess) or (
                    exc == best_excess and cum > best_cum
                )
        if better:
            best_cum = cum
            best_idx = n_moves
            best_feasible = feas
            best_excess = exc
            stalls = 0
        else:
            stalls += 1
            if stalls > stall_window:
                break

    # roll back to the best prefix (undo_move, no gain maintenance)
    for i in range(n_moves - 1, best_idx - 1, -1):
        v = moves[i]
        frm = part[v]
        to = 1 - frm
        for ni in range(xnets[v], xnets[v + 1]):
            n = vnets[ni]
            pc[frm, n] -= 1
            pc[to, n] += 1
        part[v] = to
        wv = w[v]
        W[frm] -= wv
        W[to] += wv
        locked[v] = False

    return best_cum, best_idx, n_moves


def _match_arrays(
    xpins, pins, xnets, vnets, w, cost, order,
    has_part, part, has_fix, fix,
    cluster, cweight, cfixed,
    hcm, max_net_size, max_cluster_weight,
):
    """HCM/HCC matching on flat arrays; reference:
    ``coarsen._match_scalar`` (per-pin branch).

    Mutates ``cluster``/``cweight``/``cfixed`` (preallocated to the
    vertex count) and returns ``(n_clusters, pins_visited)``.  Scores
    accumulate per pin in net order — the same float addition order as
    the reference, so selections are bit-identical.
    """
    nv = cluster.shape[0]
    score = np.zeros(nv, dtype=np.float64)
    touched = np.empty(nv, dtype=np.int64)
    ncl = 0
    pins_visited = 0

    for oi in range(order.shape[0]):
        v = order[oi]
        if cluster[v] != -1:
            continue
        fv = fix[v] if has_fix else -1
        wv = w[v]
        pv = part[v] if has_part else -1
        n_touched = 0
        for ni in range(xnets[v], xnets[v + 1]):
            n = vnets[ni]
            lo = xpins[n]
            hi = xpins[n + 1]
            sz = hi - lo
            if sz == 2 and 2 <= max_net_size:
                pins_visited += 2
                u = pins[lo]
                if u == v:
                    u = pins[lo + 1]
                if score[u] == 0.0:
                    touched[n_touched] = u
                    n_touched += 1
                score[u] += cost[n]
                continue
            if sz < 2 or sz > max_net_size:
                continue
            pins_visited += sz
            sc = cost[n] / (sz - 1)
            for j in range(lo, hi):
                u = pins[j]
                if u != v:
                    if score[u] == 0.0:
                        touched[n_touched] = u
                        n_touched += 1
                    score[u] += sc
        best_u = -1
        best_s = 0.0
        for ti in range(n_touched):
            u = touched[ti]
            s = score[u]
            score[u] = 0.0
            if s <= best_s:
                continue
            if has_part and part[u] != pv:
                continue
            cu = cluster[u]
            if hcm and cu != -1:
                continue
            tw = (cweight[cu] if cu != -1 else w[u]) + wv
            if tw > max_cluster_weight:
                continue
            if cu != -1:
                fu = cfixed[cu]
            elif has_fix:
                fu = fix[u]
            else:
                fu = -1
            if fv != -1 and fu != -1 and fu != fv:
                continue
            best_u = u
            best_s = s
        if best_u == -1:
            cluster[v] = ncl
            cweight[ncl] = wv
            cfixed[ncl] = fv
            ncl += 1
        else:
            cu = cluster[best_u]
            if cu == -1:
                cu = ncl
                cweight[cu] = w[best_u]
                cfixed[cu] = fix[best_u] if has_fix else -1
                cluster[best_u] = cu
                ncl += 1
            cluster[v] = cu
            cweight[cu] += wv
            if fv != -1:
                cfixed[cu] = fv
    return ncl, pins_visited


_bump = _jit(_bump)
_best_capped = _jit(_best_capped)
_best_feasible = _jit(_best_feasible)
_fm_pass_arrays = _jit(_fm_pass_arrays)
_match_arrays = _jit(_match_arrays)


def fm_pass_jit(core, maxw, cfg, rng) -> tuple[int, bool]:
    """One FM pass over *core* using the jit kernel.

    Same conversion contract as :func:`repro.partitioner.fm_flat.fm_pass_flat`:
    identical RNG consumption, core state written back at the end.
    """
    from repro.telemetry import get_recorder

    h = core.h
    nv = core.nv
    core.compute_all_gains()
    gain = np.asarray(core.gain, dtype=np.int64)
    core.locked = [False] * nv

    boundary_mode = nv > cfg.fm_boundary_threshold
    if boundary_mode:
        cand = core.boundary_vertices()
    else:
        cand = np.arange(nv)
    free = np.asarray(core.free, dtype=np.bool_)
    cand = cand[free[cand]]
    if len(cand) == 0:
        return 0, False

    part = core.part_array().astype(np.int64)
    pc = np.stack(
        [np.asarray(core.pc[0], dtype=np.int64),
         np.asarray(core.pc[1], dtype=np.int64)]
    )
    locked = np.zeros(nv, dtype=np.bool_)
    W = np.asarray(core.W, dtype=np.int64)
    maxw_a = np.asarray(maxw, dtype=np.int64)
    w = np.asarray(h.vertex_weights, dtype=np.int64)
    seq = cand[rng.permutation(len(cand))].astype(np.int64)
    stall_window = max(int(cfg.fm_stall_frac * len(cand)), cfg.fm_stall_min)

    best_cum, best_idx, n_moves = _fm_pass_arrays(
        h.xpins.astype(np.int64), h.pins.astype(np.int64),
        h.xnets.astype(np.int64), h.vnets.astype(np.int64),
        w, np.asarray(h.net_costs, dtype=np.int64),
        part, pc, gain, locked, free, W, maxw_a,
        seq, int(core.max_gain_bound()), boundary_mode, stall_window,
    )

    core.part = part.tolist()
    core.pc = [pc[0].tolist(), pc[1].tolist()]
    core.gain = gain.tolist()
    core.locked = locked.tolist()
    core.W = [int(W[0]), int(W[1])]

    rec = get_recorder()
    if rec.enabled:
        rec.add("fm.moves", best_idx)
        rec.add("fm.rollbacks", n_moves - best_idx)
    changed = best_idx > 0
    return (int(best_cum) if changed else 0), changed


def match_jit(
    h, order, part_l, w, fix, cluster, cweight, cfixed,
    hcm, max_net_size, max_cluster_weight,
) -> int:
    """Matcher entry with the same list-based contract as
    ``coarsen._match_scalar`` (mutates *cluster*, appends to
    *cweight*/*cfixed*, returns pins visited)."""
    nv = h.num_vertices
    cl = np.full(nv, -1, dtype=np.int64)
    cw = np.zeros(nv, dtype=np.int64)
    cf = np.full(nv, -1, dtype=np.int64)
    has_part = part_l is not None
    has_fix = fix is not None
    part_a = (
        np.asarray(part_l, dtype=np.int64) if has_part
        else np.zeros(0, dtype=np.int64)
    )
    fix_a = (
        np.asarray(fix, dtype=np.int64) if has_fix
        else np.zeros(0, dtype=np.int64)
    )
    ncl, pins_visited = _match_arrays(
        h.xpins.astype(np.int64), h.pins.astype(np.int64),
        h.xnets.astype(np.int64), h.vnets.astype(np.int64),
        np.asarray(h.vertex_weights, dtype=np.int64),
        np.asarray(h.net_costs, dtype=np.int64),
        order.astype(np.int64),
        has_part, part_a, has_fix, fix_a,
        cl, cw, cf,
        hcm, max_net_size, max_cluster_weight,
    )
    cluster[:] = cl.tolist()
    cweight.extend(cw[:ncl].tolist())
    cfixed.extend(cf[:ncl].tolist())
    return int(pins_visited)


def warmup() -> None:
    """Trigger compilation of the jitted kernels on a tiny instance so
    the first real partition does not pay the compile latency."""
    xpins = np.array([0, 2, 4], dtype=np.int64)
    pins = np.array([0, 1, 1, 2], dtype=np.int64)
    xnets = np.array([0, 1, 3, 4], dtype=np.int64)
    vnets = np.array([0, 0, 1, 1], dtype=np.int64)
    w = np.ones(3, dtype=np.int64)
    cost = np.ones(2, dtype=np.int64)
    part = np.array([0, 0, 1], dtype=np.int64)
    pc = np.array([[2, 1], [0, 1]], dtype=np.int64)
    gain = np.zeros(3, dtype=np.int64)
    locked = np.zeros(3, dtype=np.bool_)
    free = np.ones(3, dtype=np.bool_)
    W = np.array([2, 1], dtype=np.int64)
    maxw = np.array([2, 2], dtype=np.int64)
    seq = np.array([0, 1, 2], dtype=np.int64)
    _fm_pass_arrays(
        xpins, pins, xnets, vnets, w, cost, part, pc, gain, locked, free,
        W, maxw, seq, 2, False, 50,
    )
    _match_arrays(
        xpins, pins, xnets, vnets, w, cost, seq,
        False, np.zeros(0, dtype=np.int64), False, np.zeros(0, dtype=np.int64),
        np.full(3, -1, dtype=np.int64), np.zeros(3, dtype=np.int64),
        np.full(3, -1, dtype=np.int64), False, 300, 3,
    )
