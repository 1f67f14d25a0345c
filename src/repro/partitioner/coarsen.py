"""Coarsening phase: randomized agglomerative matching + coarse build.

Two matching schemes from PaToH are implemented:

* **HCM** (heavy connectivity matching): visits vertices in random order and
  pairs each unmatched vertex with the unmatched neighbour sharing the
  largest total net-connectivity score ``sum c_n / (|n| - 1)``.
* **HCC** (heavy connectivity clustering, PaToH's default): like HCM but a
  vertex may also be *absorbed* into an already-formed cluster, which copes
  much better with the star-like structures of matrices with dense
  rows/columns.

On a *single-term* level — every vertex in at most two nets, no two
vertices sharing two nets, as on every fine-grain finest level — each
score is one net's term, so the matcher walks each vertex's two nets in
score order instead of scoring pin by pin (:func:`_match_single_term`).

After matching, the coarse hypergraph is built by mapping pins through the
cluster map, removing duplicate pins, discarding single-pin nets (they can
never be cut) and merging identical nets while summing their costs — the
standard transformations that preserve the attainable cutsize exactly.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, multi_arange, prefix_from_counts
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.kernels import resolve_kernel
from repro.telemetry import get_recorder

__all__ = ["match_vertices", "build_coarse", "coarsen_level", "CoarseLevel", "coarsen"]

#: within the scalar matcher, a single vertex whose scoring expansion
#: (pins behind its eligible nets) reaches this many entries gets a
#: one-vertex batched pass instead of the per-pin loop.  Dense rows/columns
#: produce such vertices; batching them has zero wasted work because the
#: vertex is already known to be unclustered.
_VERTEX_VECTOR_MIN = 3000

#: the dense-vertex branch needs O(pins) numpy precomputation per
#: match_vertices call; skip it entirely for tiny hypergraphs
_DENSE_AUX_MIN = 4096


def _argsort_ids(keys: np.ndarray, hi: int) -> np.ndarray:
    """Stable argsort of non-negative ids ``< hi`` via uint16 radix passes.

    numpy's stable argsort only takes its radix path for <= 16-bit keys
    (an int64 stable argsort measures ~6x slower at the same length), so
    wider ids sort low-half then high-half: two stable passes over
    subkeys compose into one stable sort of the full key.  Ids here are
    vertex indices, always < 2**32.
    """
    if hi <= (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    s = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)
    return s[np.argsort(high[s], kind="stable")]


def _net_scores(
    h: Hypergraph, max_net_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sizes, valid, net_score)`` for matching, cached on *h*: net sizes,
    which nets are scoring-eligible (``2 <= size <= max_net_size``), and
    the per-net connectivity score ``c_n / (size - 1)`` (0.0 when
    ineligible).  Pure functions of the immutable hypergraph and the cap,
    so V-cycles revisiting a level reuse them."""

    def make() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sizes = np.diff(h.xpins)
        valid = (sizes >= 2) & (sizes <= max_net_size)
        net_score = np.where(valid, h.net_costs / np.maximum(sizes - 1, 1), 0.0)
        return sizes, valid, net_score

    return h._view(f"net_scores_{max_net_size}", make)


def _max_degree(h: Hypergraph) -> int:
    return h._view(
        "max_degree",
        lambda: int(np.diff(h.xnets).max()) if h.num_vertices else 0,
    )


def _is_single_term(h: Hypergraph) -> bool:
    """Whether every connectivity score on *h* is a single net's term.

    Holds when every vertex has degree <= 2 and no two degree-2 vertices
    have the same net pair: pins within a net are distinct, so two vertices
    then share at most one net.  Every fine-grain hypergraph qualifies — a
    nonzero lies in one row net and one column net, and two nonzeros never
    share both.  Coarse and 1D levels fail the O(1) degree test.
    """
    if _max_degree(h) > 2:
        return False

    def make() -> bool:
        lo = h.xnets[:-1][np.diff(h.xnets) == 2]
        a, b = h.vnets[lo], h.vnets[lo + 1]
        key = np.minimum(a, b).astype(np.int64) * h.num_nets + np.maximum(a, b)
        return len(np.unique(key)) == len(key)

    return h._view("single_term", make)


def _ranked_nets(h: Hypergraph, max_net_size: int) -> tuple[list[int], list[int]]:
    """Per vertex of a single-term level, its scoring-eligible nets in
    candidate order: ``(first, second)``, ``-1`` where there is none.

    Every candidate reached through a net scores that net's term, so the
    per-pin loop's pick — the first feasible candidate of strictly
    greatest score, in first-touch order — is the first feasible pin of
    the higher-scoring net, then of the other.  Equal scores keep
    ``vnets`` order, which is also the touch order.  A net whose score is
    0.0 never beats the loop's initial best, so it yields no candidate.
    """

    def make() -> tuple[list[int], list[int]]:
        _, _, net_score = _net_scores(h, max_net_size)
        score = np.r_[net_score, 0.0]  # index -1: no net
        deg = np.diff(h.xnets)
        vn = np.r_[h.vnets, -1, -1]
        n0 = np.where(deg >= 1, vn[h.xnets[:-1]], -1)
        n1 = np.where(deg == 2, vn[h.xnets[:-1] + 1], -1)
        swap = score[n1] > score[n0]
        first = np.where(swap, n1, n0)
        second = np.where(swap, n0, n1)
        first[score[first] <= 0.0] = -1
        second[score[second] <= 0.0] = -1
        return first.tolist(), second.tolist()

    return h._view(f"ranked_nets_{max_net_size}", make)


def match_vertices(
    h: Hypergraph,
    rng: np.random.Generator,
    scheme: str = "hcc",
    max_net_size: int = 300,
    max_cluster_weight: int | None = None,
    fixed: np.ndarray | None = None,
    part: np.ndarray | None = None,
    kernel: str = "fast",
) -> tuple[np.ndarray, int, np.ndarray]:
    """Cluster vertices; returns ``(cmap, n_clusters, coarse_fixed)``.

    ``cmap[v]`` is the coarse vertex id of ``v``.  ``coarse_fixed`` carries
    pre-assignments onto clusters (a cluster may only contain vertices fixed
    to the same part, or free vertices).

    When *part* is given (V-cycle restricted coarsening), vertices only
    cluster with vertices of the same part, so the partition projects
    exactly onto the coarse hypergraph.

    *kernel* (see :mod:`repro.partitioner.kernels`) picks the route.
    ``"reference"`` always runs the pure per-pin loop, the
    differential-testing oracle (route ``reference``).  ``"fast"`` takes
    the structural single-term route when :func:`_is_single_term` holds
    (route ``single-term``): each vertex walks the pins of its two nets
    in score order, no per-pin scoring.  Otherwise it runs the scalar
    loop with one-vertex batching of dense scoring expansions (route
    ``scalar``).  The greedy selection is sequential everywhere, and
    every route produces identical output.
    """
    nv = h.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = max(int(h.total_vertex_weight()), 1)
    hcm = scheme == "hcm"
    part_l = part.tolist() if part is not None else None

    w = h.weights_list()
    fix = fixed.tolist() if fixed is not None else None

    cluster: list[int] = [-1] * nv
    cweight: list[int] = []
    cfixed: list[int] = []
    order = rng.permutation(nv)

    kernel = resolve_kernel(kernel)
    if kernel == "reference":
        matcher, route = _match_reference, "reference"
    elif _is_single_term(h):
        matcher, route = _match_single_term, "single-term"
    else:
        matcher, route = _match_scalar, "scalar"
    rec = get_recorder()
    with rec.span(
        "coarsen.match",
        vertices=nv,
        nets=h.num_nets,
        pins=h.num_pins,
        kernel=kernel,
        route=route,
    ):
        pins_visited = matcher(
            h, order, part_l, w, fix, cluster, cweight, cfixed,
            hcm, max_net_size, max_cluster_weight,
        )

    if rec.enabled:
        rec.add("coarsen.pins_visited", pins_visited)
        rec.add("coarsen.clusters", len(cweight))
    cmap = np.asarray(cluster, dtype=INDEX_DTYPE)
    return cmap, len(cweight), np.asarray(cfixed, dtype=INDEX_DTYPE)


def _dense_candidates(
    v: int,
    h: Hypergraph,
    valid: np.ndarray,
    sizes: np.ndarray,
    net_score: np.ndarray,
) -> list[int]:
    """Batched scoring of one vertex: candidates in descending-score order
    (first-encounter order on ties).

    Nets expand in ``vnets`` order and pins in storage order; the stable
    sort keeps each candidate's terms in that order and ``np.bincount``
    adds weights left to right, so every float sum equals the scalar
    loop's.  The scalar loop keeps the first strictly greater score among
    feasible candidates, and feasibility cannot change mid-scan, so the
    first feasible candidate in this order is its pick.
    """
    ns = h.vnets[h.xnets[v] : h.xnets[v + 1]]
    ns = ns[valid[ns]]
    cnt = sizes[ns]
    cand = h.pins[multi_arange(h.xpins[ns], cnt)]
    keep = cand != v
    cand = cand[keep]
    if len(cand) == 0:
        return []
    scs = np.repeat(net_score[ns], cnt)[keep]
    # radix argsort; bincount accumulates weights in input order exactly
    # like the unbuffered np.add.at it replaces
    perm = _argsort_ids(cand, h.num_vertices)
    cs = cand[perm]
    boundary = np.r_[True, cs[1:] != cs[:-1]]
    grp = np.flatnonzero(boundary)
    gid = np.cumsum(boundary) - 1
    score = np.bincount(gid, weights=scs[perm], minlength=len(grp))
    first_idx = perm[grp]
    ordr = np.lexsort((first_idx, -score))
    return cs[grp][ordr].tolist()


def _match_scalar(
    h: Hypergraph,
    order: np.ndarray,
    part_l: list[int] | None,
    w: list[int],
    fix: list[int] | None,
    cluster: list[int],
    cweight: list[int],
    cfixed: list[int],
    hcm: bool,
    max_net_size: int,
    max_cluster_weight: int,
    dense_ok: bool = True,
) -> int:
    """Scalar matching loop (fast on small hypergraphs).

    With *dense_ok*, vertices whose scoring expansion is dense
    (``_VERTEX_VECTOR_MIN``) are scored by a one-vertex batched pass —
    same candidates, same float accumulation order, same selection result
    as the per-pin loop.  Without it this is the pure per-pin reference.
    """
    nv = h.num_vertices
    xnets = h.xnets_list()
    vnets = h.vnets_list()
    xpins = h.xpins_list()
    pins = h.pins_list()
    costs = h.costs_list()

    dense_aux = None
    if dense_ok and h.num_pins >= _DENSE_AUX_MIN:
        # cheap upper bound on any vertex's scoring expansion: no vertex
        # can expand past max_degree * largest eligible net.  Low-degree
        # levels with capped nets can never reach _VERTEX_VECTOR_MIN, so
        # they skip the expansion setup entirely instead of paying
        # O(pins) for a path that never fires.
        max_sz = h._view(
            "max_net_size",
            lambda: int(np.diff(h.xpins).max()) if h.num_nets else 0,
        )
        if _max_degree(h) * min(max_sz, max_net_size) >= _VERTEX_VECTOR_MIN:
            sizes_np, valid_np, net_score = _net_scores(h, max_net_size)

            def make_expand() -> list[int]:
                # per vertex, the pins behind its eligible nets
                vowner = np.repeat(np.arange(nv), np.diff(h.xnets))
                vmask = valid_np[h.vnets]
                return np.bincount(
                    vowner[vmask], weights=sizes_np[h.vnets[vmask]], minlength=nv
                ).astype(np.int64).tolist()

            expand = h._view(f"expand_l_{max_net_size}", make_expand)
            dense_aux = (valid_np, sizes_np, net_score)

    # flat score accumulator: positive increments only, so score == 0.0
    # doubles as the "untouched" marker (cheaper than a dict by ~2x on the
    # profile; see DESIGN.md performance notes)
    score: list[float] = [0.0] * nv
    touched: list[int] = []
    pins_visited = 0

    for v in order.tolist():
        if cluster[v] != -1:
            continue
        fv = fix[v] if fix is not None else -1
        wv = w[v]
        pv = part_l[v] if part_l is not None else -1
        best_u = -1
        if dense_aux is not None and expand[v] >= _VERTEX_VECTOR_MIN:
            pins_visited += expand[v]
            # candidates arrive score-descending: first feasible one wins
            for u in _dense_candidates(v, h, *dense_aux):
                if part_l is not None and part_l[u] != pv:
                    continue  # restricted coarsening: stay in-part
                cu = cluster[u]
                if hcm and cu != -1:
                    continue  # pure matching never grows a cluster
                tw = (cweight[cu] if cu != -1 else w[u]) + wv
                if tw > max_cluster_weight:
                    continue
                fu = (
                    cfixed[cu]
                    if cu != -1
                    else (fix[u] if fix is not None else -1)
                )
                if fv != -1 and fu != -1 and fu != fv:
                    continue
                best_u = u
                break
        else:
            touched.clear()
            for n in vnets[xnets[v] : xnets[v + 1]]:
                lo, hi = xpins[n], xpins[n + 1]
                sz = hi - lo
                if sz == 2 <= max_net_size:
                    # dominant case in fine-grain models: the one other pin
                    pins_visited += 2
                    u = pins[lo]
                    if u == v:
                        u = pins[lo + 1]
                    if score[u] == 0.0:
                        touched.append(u)
                    score[u] += costs[n]
                    continue
                if sz < 2 or sz > max_net_size:
                    continue
                pins_visited += sz
                sc = costs[n] / (sz - 1)
                for u in pins[lo:hi]:
                    if u != v:
                        if score[u] == 0.0:
                            touched.append(u)
                        score[u] += sc
            best_s = 0.0
            for u in touched:
                s = score[u]
                score[u] = 0.0
                if s <= best_s:
                    continue
                if part_l is not None and part_l[u] != pv:
                    continue  # restricted (V-cycle) coarsening: stay in-part
                cu = cluster[u]
                if hcm and cu != -1:
                    continue  # pure matching never grows a cluster
                tw = (cweight[cu] if cu != -1 else w[u]) + wv
                if tw > max_cluster_weight:
                    continue
                fu = (
                    cfixed[cu]
                    if cu != -1
                    else (fix[u] if fix is not None else -1)
                )
                if fv != -1 and fu != -1 and fu != fv:
                    continue
                best_u, best_s = u, s
        if best_u == -1:
            cluster[v] = len(cweight)
            cweight.append(wv)
            cfixed.append(fv)
        else:
            cu = cluster[best_u]
            if cu == -1:
                cu = len(cweight)
                cweight.append(w[best_u])
                cfixed.append(fix[best_u] if fix is not None else -1)
                cluster[best_u] = cu
            cluster[v] = cu
            cweight[cu] += wv
            if fv != -1:
                cfixed[cu] = fv
    return pins_visited


def _match_reference(
    h: Hypergraph,
    order: np.ndarray,
    part_l: list[int] | None,
    w: list[int],
    fix: list[int] | None,
    cluster: list[int],
    cweight: list[int],
    cfixed: list[int],
    hcm: bool,
    max_net_size: int,
    max_cluster_weight: int,
) -> int:
    """The ``reference`` route: the pure per-pin loop, no batching.

    This is the differential-testing oracle the fast routes are measured
    against; it trades speed on dense instances for one
    obviously-sequential interpreted loop."""
    return _match_scalar(
        h, order, part_l, w, fix, cluster, cweight, cfixed,
        hcm, max_net_size, max_cluster_weight, dense_ok=False,
    )


def _match_single_term(
    h: Hypergraph,
    order: np.ndarray,
    part_l: list[int] | None,
    w: list[int],
    fix: list[int] | None,
    cluster: list[int],
    cweight: list[int],
    cfixed: list[int],
    hcm: bool,
    max_net_size: int,
    max_cluster_weight: int,
) -> int:
    """Greedy matching on a single-term level (:func:`_is_single_term`).

    Each vertex walks the pins of its nets in :func:`_ranked_nets` order
    and joins the first feasible one: the per-pin loop's pick, without
    scoring.  The feasibility checks and the join must stay those of
    :func:`_match_scalar`.  Returns the pins examined.
    """
    xpins = h.xpins_list()
    pins = h.pins_list()
    first, second = _ranked_nets(h, max_net_size)
    pins_visited = 0

    for v in order.tolist():
        if cluster[v] != -1:
            continue
        fv = fix[v] if fix is not None else -1
        wv = w[v]
        pv = part_l[v] if part_l is not None else -1
        best_u = -1
        for n in (first[v], second[v]):
            if n == -1:
                break
            for u in pins[xpins[n] : xpins[n + 1]]:
                pins_visited += 1
                if u == v:
                    continue
                if part_l is not None and part_l[u] != pv:
                    continue  # restricted (V-cycle) coarsening: stay in-part
                cu = cluster[u]
                if hcm and cu != -1:
                    continue  # pure matching never grows a cluster
                tw = (cweight[cu] if cu != -1 else w[u]) + wv
                if tw > max_cluster_weight:
                    continue
                fu = (
                    cfixed[cu]
                    if cu != -1
                    else (fix[u] if fix is not None else -1)
                )
                if fv != -1 and fu != -1 and fu != fv:
                    continue
                best_u = u
                break
            if best_u != -1:
                break
        if best_u == -1:
            cluster[v] = len(cweight)
            cweight.append(wv)
            cfixed.append(fv)
        else:
            cu = cluster[best_u]
            if cu == -1:
                cu = len(cweight)
                cweight.append(w[best_u])
                cfixed.append(fix[best_u] if fix is not None else -1)
                cluster[best_u] = cu
            cluster[v] = cu
            cweight[cu] += wv
            if fv != -1:
                cfixed[cu] = fv
    return pins_visited


def build_coarse(h: Hypergraph, cmap: np.ndarray, n_clusters: int) -> Hypergraph:
    """Contract *h* along *cmap*.

    One loop per net remaps its pins through the cluster map and
    collapses duplicates; single-pin nets are dropped and identical nets
    merged with summed costs (first appearance keeps the net's slot).
    These transformations change neither the cutsize of any partition
    nor the balance (cluster weights are the sums of member weights).
    """
    rec = get_recorder()
    with rec.span(
        "coarsen.build",
        vertices=h.num_vertices,
        nets=h.num_nets,
        pins=h.num_pins,
    ):
        cw = np.bincount(
            cmap, weights=h.vertex_weights, minlength=n_clusters
        ).astype(INDEX_DTYPE)
        cmap_l = cmap.tolist()
        xpins = h.xpins_list()
        pins = h.pins_list()
        costs = h.costs_list()
        flat_pins: list[int] = []
        counts: list[int] = []
        new_costs: list[int] = []
        seen: dict[tuple[int, ...], int] = {}
        for n in range(h.num_nets):
            seg = sorted({cmap_l[p] for p in pins[xpins[n] : xpins[n + 1]]})
            if len(seg) < 2:
                continue
            bkey = tuple(seg)
            idx = seen.get(bkey)
            if idx is None:
                seen[bkey] = len(new_costs)
                new_costs.append(costs[n])
                counts.append(len(seg))
                flat_pins.extend(seg)
            else:
                new_costs[idx] += costs[n]
        return Hypergraph(
            n_clusters,
            prefix_from_counts(counts),
            np.asarray(flat_pins, dtype=INDEX_DTYPE),
            vertex_weights=cw,
            net_costs=np.asarray(new_costs, dtype=INDEX_DTYPE),
            validate=False,
        )


class CoarseLevel:
    """One level of the multilevel hierarchy: the finer hypergraph together
    with the map onto the next-coarser one."""

    __slots__ = ("fine", "cmap", "fixed")

    def __init__(self, fine: Hypergraph, cmap: np.ndarray, fixed: np.ndarray | None):
        self.fine = fine
        self.cmap = cmap
        self.fixed = fixed  # fixed01 of the FINE hypergraph (or None)


def coarsen_level(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    fixed: np.ndarray | None,
    part: np.ndarray | None = None,
) -> tuple[Hypergraph, np.ndarray, np.ndarray | None]:
    """One coarsening step; returns ``(coarse_h, cmap, coarse_fixed)``."""
    cmap, nc, cfix = match_vertices(
        h,
        rng,
        scheme=cfg.matching,
        max_net_size=cfg.max_net_size_coarsen,
        max_cluster_weight=max_cluster_weight,
        fixed=fixed,
        part=part,
        kernel=cfg.kernel,
    )
    hc = build_coarse(h, cmap, nc)
    coarse_fixed = cfix if fixed is not None else None
    return hc, cmap, coarse_fixed


def coarsen(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    fixed: np.ndarray | None = None,
) -> tuple[list[CoarseLevel], Hypergraph, np.ndarray | None]:
    """Build the full coarsening hierarchy for one bisection.

    Returns ``(levels, coarsest, coarsest_fixed)`` where ``levels[i].fine``
    is the hypergraph at level *i* (level 0 = input) and
    ``levels[i].cmap`` maps its vertices onto level *i+1*.
    """
    levels: list[CoarseLevel] = []
    cur = h
    cur_fixed = fixed
    if cfg.matching == "none":
        return levels, cur, cur_fixed
    rec = get_recorder()
    total = max(h.total_vertex_weight(), 1)
    # a cluster may not exceed what a perfectly balanced coarsest part could
    # absorb; this keeps the coarsest instance bisectable
    max_cluster_weight = max(total // max(cfg.coarsen_to // 2, 1), 1)
    with rec.span("coarsen", vertices=h.num_vertices, pins=h.num_pins) as csp:
        for depth in range(cfg.max_coarsen_levels):
            if cur.num_vertices <= cfg.coarsen_to:
                break
            with rec.span("coarsen.level", level=depth) as lsp:
                hc, cmap, cfix = coarsen_level(
                    cur, cfg, rng, max_cluster_weight, cur_fixed
                )
                lsp.set(
                    vertices=hc.num_vertices,
                    nets=hc.num_nets,
                    pins=hc.num_pins,
                )
                lsp.gauge(
                    "shrink", hc.num_vertices / max(cur.num_vertices, 1)
                )
            if hc.num_vertices >= cfg.min_coarsen_shrink * cur.num_vertices:
                break  # stagnated; further levels would waste time
            levels.append(CoarseLevel(cur, cmap, cur_fixed))
            cur = hc
            cur_fixed = cfix
        csp.set(levels=len(levels), coarsest_vertices=cur.num_vertices)
    return levels, cur, cur_fixed


def coarsen_restricted(
    h: Hypergraph,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    part: np.ndarray,
    fixed: np.ndarray | None = None,
) -> tuple[list[CoarseLevel], Hypergraph, np.ndarray | None, np.ndarray]:
    """V-cycle coarsening: like :func:`coarsen` but clustering only within
    the parts of *part*, so the bisection projects exactly.

    Returns ``(levels, coarsest, coarsest_fixed, coarsest_part)``.
    """
    levels: list[CoarseLevel] = []
    cur = h
    cur_fixed = fixed
    cur_part = np.asarray(part, dtype=INDEX_DTYPE)
    rec = get_recorder()
    total = max(h.total_vertex_weight(), 1)
    max_cluster_weight = max(total // max(cfg.coarsen_to // 2, 1), 1)
    with rec.span(
        "coarsen", restricted=True, vertices=h.num_vertices, pins=h.num_pins
    ) as csp:
        for depth in range(cfg.max_coarsen_levels):
            if cur.num_vertices <= cfg.coarsen_to:
                break
            with rec.span("coarsen.level", level=depth) as lsp:
                cmap, nc, cfix = match_vertices(
                    cur,
                    rng,
                    scheme=cfg.matching if cfg.matching != "none" else "hcc",
                    max_net_size=cfg.max_net_size_coarsen,
                    max_cluster_weight=max_cluster_weight,
                    fixed=cur_fixed,
                    part=cur_part,
                    kernel=cfg.kernel,
                )
                hc = build_coarse(cur, cmap, nc)
                lsp.set(
                    vertices=hc.num_vertices,
                    nets=hc.num_nets,
                    pins=hc.num_pins,
                )
                lsp.gauge(
                    "shrink", hc.num_vertices / max(cur.num_vertices, 1)
                )
            if hc.num_vertices >= cfg.min_coarsen_shrink * cur.num_vertices:
                break
            # project: all members of a cluster share a part by construction
            coarse_part = np.empty(nc, dtype=INDEX_DTYPE)
            coarse_part[cmap] = cur_part
            levels.append(CoarseLevel(cur, cmap, cur_fixed))
            cur = hc
            cur_fixed = cfix if cur_fixed is not None else None
            cur_part = coarse_part
        csp.set(levels=len(levels), coarsest_vertices=cur.num_vertices)
    return levels, cur, cur_fixed, cur_part
