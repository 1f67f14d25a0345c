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
Every other level is scored at once: the scores are static within a
level, so they are the off-diagonal entries of one sparse product
``S = H diag(c_n / (|n| - 1)) H^T`` (:func:`_match_product`).

After matching, the coarse hypergraph is built by mapping pins through the
cluster map, removing duplicate pins, discarding single-pin nets (they can
never be cut) and merging identical nets while summing their costs — the
standard transformations that preserve the attainable cutsize exactly.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE, prefix_from_counts
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder

__all__ = ["match_vertices", "build_coarse", "coarsen_level", "CoarseLevel", "coarsen"]

#: scoring-expansion entries (pins behind the eligible nets of a block's
#: vertices) per sparse-product block in :func:`_match_product`.  It bounds
#: the product's temporaries and changes no result.
_PRODUCT_BLOCK = 1 << 18


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


def _pick_matcher(h: Hypergraph):
    """``(matcher, route)`` for level *h*: the structural single-term
    route when :func:`_is_single_term` holds — each vertex walks the pins
    of its two nets in score order, no per-pin scoring — otherwise the
    product route, which scores the whole level with one blocked sparse
    product and walks each vertex's precomputed candidates.

    The per-pin loop :func:`_match_reference` is the oracle both routes
    are tested against; a test patches this seam to run it instead.
    """
    if _is_single_term(h):
        return _match_single_term, "single-term"
    return _match_product, "product"


def match_vertices(
    h: Hypergraph,
    rng: np.random.Generator,
    scheme: str = "hcc",
    max_net_size: int = 300,
    max_cluster_weight: int | None = None,
    fixed: np.ndarray | None = None,
    part: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Cluster vertices; returns ``(cmap, n_clusters, coarse_fixed)``.

    ``cmap[v]`` is the coarse vertex id of ``v``.  ``coarse_fixed`` carries
    pre-assignments onto clusters (a cluster may only contain vertices fixed
    to the same part, or free vertices).

    When *part* is given (V-cycle restricted coarsening), vertices only
    cluster with vertices of the same part, so the partition projects
    exactly onto the coarse hypergraph.

    :func:`_pick_matcher` picks the route from the level alone.  The
    greedy selection is sequential everywhere, and every route produces
    the per-pin reference loop's output.
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

    matcher, route = _pick_matcher(h)
    rec = get_recorder()
    with rec.span(
        "coarsen.match",
        vertices=nv,
        nets=h.num_nets,
        pins=h.num_pins,
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
    """The ``reference`` route: the pure per-pin scoring loop.

    This is the differential-testing oracle the fast routes are measured
    against: one obviously-sequential interpreted loop.  Each visited
    vertex adds ``c_n / (|n| - 1)`` to every other pin of each eligible
    net (nets in ``vnets`` order, pins in storage order), then joins the
    feasible candidate of greatest score, the first touched on ties.
    Returns the pins examined.
    """
    nv = h.num_vertices
    xnets = h.xnets_list()
    vnets = h.vnets_list()
    xpins = h.xpins_list()
    pins = h.pins_list()
    costs = h.costs_list()

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


def _product_scores(
    h: Hypergraph, max_net_size: int, part_l: list[int] | None
) -> tuple[list[int], list[tuple], int]:
    """Score a whole level with one sparse product, in row blocks.

    ``S = A @ B``: ``A`` is vertex x eligible net, holding ``c_n /
    (|n| - 1)`` in ``vnets`` order; ``B`` is net x vertex, holding ones
    in storage order.  scipy's ``csr_matmat`` adds each row's terms in
    the per-pin loop's order (nets, then pins; each term times 1.0), so
    every score equals the reference's bit for bit.  It emits a row in
    *reverse* first-touch order and drops zero sums, which the reference
    never picks either.

    Returns ``(top, blocks, terms)``: per vertex, the reference's pick if
    it is feasible (greatest score, the last stored on ties; never the
    vertex itself nor, under *part_l*, another part's vertex; -1 if
    none); per block of rows, ``(first_row, indptr, indices, scores)``
    with those candidates' scores zeroed; and the product's term count.
    """
    nv, nn = h.num_vertices, h.num_nets
    sizes, valid, net_score = _net_scores(h, max_net_size)
    part = np.asarray(part_l) if part_l is not None else None
    keep = valid[h.vnets]
    anets = h.vnets[keep]
    aptr = np.r_[0, np.cumsum(keep)][h.xnets]
    a = sp.csr_matrix((net_score[anets], anets, aptr), shape=(nv, nn))
    b = sp.csr_matrix((np.ones(h.num_pins), h.pins, h.xpins), shape=(nn, nv))
    # expansion before each row; a row joins the block its start falls in
    before = np.r_[0, np.cumsum(sizes[anets])][aptr]
    firsts = np.flatnonzero(np.diff(before[:-1] // _PRODUCT_BLOCK, prepend=-1))
    top = np.full(nv, -1, dtype=INDEX_DTYPE)
    blocks = []
    for lo, hi in zip(firsts, np.r_[firsts[1:], nv]):
        s = a[lo:hi] @ b
        ip, ix, d = s.indptr, s.indices, s.data
        cnt = np.diff(ip)
        own = np.repeat(np.arange(lo, hi), cnt)
        off = ix == own
        if part is not None:
            off |= part[ix] != part[own]
        d[off] = 0.0
        rows = np.flatnonzero(cnt)
        if len(rows):
            first = ip[rows]
            best = np.maximum.reduceat(d, first)
            at = np.where(d == np.repeat(best, cnt[rows]), np.arange(len(d)), -1)
            last = np.maximum.reduceat(at, first)
            won = best > 0.0
            top[lo + rows[won]] = ix[last[won]]
        blocks.append((int(lo), ip, ix, d))
    return top.tolist(), blocks, int(before[-1])


def _match_product(
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
    """Greedy matching over a level scored by :func:`_product_scores`.

    Scores are static within a level; clusters only decide feasibility.
    Each vertex tries its top candidate, the reference's pick whenever
    it is feasible.  If it is not, the vertex walks its stored row by
    descending score, then first touch, and joins the first feasible
    candidate: the reference's pick again.  The feasibility checks and
    the join must stay those of :func:`_match_reference`.  Returns the
    product's term count.
    """
    top, blocks, pins_visited = _product_scores(h, max_net_size, part_l)
    block_lo = [blk[0] for blk in blocks]

    def ranked(v: int) -> list[int]:
        lo, ip, ix, d = blocks[bisect_right(block_lo, v) - 1]
        s, e = ip[v - lo], ip[v - lo + 1]
        # first-touch order, then a stable sort by descending score;
        # zeroed candidates sort last and are cut off
        sc = d[s:e][::-1]
        o = np.argsort(-sc, kind="stable")[: np.count_nonzero(sc)]
        return ix[s:e][::-1][o].tolist()

    for v in order.tolist():
        if cluster[v] != -1:
            continue
        fv = fix[v] if fix is not None else -1
        wv = w[v]
        u, walk = top[v], None
        while u != -1:
            cu = cluster[u]
            fu = cfixed[cu] if cu != -1 else (fix[u] if fix is not None else -1)
            if (
                not (hcm and cu != -1)  # pure matching never grows a cluster
                and (cweight[cu] if cu != -1 else w[u]) + wv <= max_cluster_weight
                and (fv == -1 or fu == -1 or fu == fv)
            ):
                break
            if walk is None:
                walk = iter(ranked(v)[1:])  # its head is top[v]
            u = next(walk, -1)
        if u == -1:
            cluster[v] = len(cweight)
            cweight.append(wv)
            cfixed.append(fv)
        else:
            cu = cluster[u]
            if cu == -1:
                cu = len(cweight)
                cweight.append(w[u])
                cfixed.append(fix[u] if fix is not None else -1)
                cluster[u] = cu
            cluster[v] = cu
            cweight[cu] += wv
            if fv != -1:
                cfixed[cu] = fv
    return pins_visited


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
    :func:`_match_reference`.  Returns the pins examined.
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


#: splitmix64 constants: the golden-ratio increment and the two
#: multipliers of its finaliser
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, element-wise and in place on the uint64
    array *x*."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _row_hashes(
    clusters: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two order-independent 64-bit hashes per row: the wrapping sums of
    two splitmix mixes of its entries.  *starts* are the (non-empty)
    rows' first positions in *clusters*."""
    a = _mix(clusters.astype(np.uint64) * _GOLDEN + _GOLDEN)
    b = _mix(a ^ _GOLDEN)
    return np.add.reduceat(a, starts), np.add.reduceat(b, starts)


def build_coarse(h: Hypergraph, cmap: np.ndarray, n_clusters: int) -> Hypergraph:
    """Contract *h* along *cmap*.

    Every pin is keyed ``net * n_clusters + cmap[pin]``; one sort and
    dropping adjacent duplicates leave each net's distinct clusters in
    ascending order.  Nets left with fewer than two clusters are dropped
    (they can never be cut).  Identical nets merge into the first one's
    slot with summed costs: nets are grouped by size and two row hashes,
    and every merge is confirmed entry by entry, so a hash collision
    never merges two different nets.  Neither transformation changes the
    cutsize of any partition, nor the balance (cluster weights are the
    sums of member weights).
    """
    rec = get_recorder()
    with rec.span(
        "coarsen.build",
        vertices=h.num_vertices,
        nets=h.num_nets,
        pins=h.num_pins,
    ) as span:
        cw = np.bincount(
            cmap, weights=h.vertex_weights, minlength=n_clusters
        ).astype(INDEX_DTYPE)
        key = h.net_of_pin() * n_clusters + cmap[h.pins]
        key.sort()
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        net = key // max(n_clusters, 1)
        sizes = np.bincount(net, minlength=h.num_nets)
        multi = sizes >= 2
        pins = (key - net * n_clusters)[multi[net]]
        sizes = sizes[multi]
        costs = h.net_costs[multi]
        m = len(sizes)
        xpins = prefix_from_counts(sizes)
        rep = _merge_identical(pins, xpins, sizes) if m > 1 else None
        merged = 0
        if rep is not None:
            head = rep == np.arange(m)
            merged = m - int(np.count_nonzero(head))
            # float sums of integer costs are exact below 2**53
            costs = np.bincount(rep, weights=costs, minlength=m)[head]
            costs = costs.astype(INDEX_DTYPE)
            pins = pins[np.repeat(head, sizes)]
            xpins = prefix_from_counts(sizes[head])
        span.set(dropped=h.num_nets - m, merged=merged)
        return Hypergraph(
            n_clusters,
            xpins,
            pins,
            vertex_weights=cw,
            net_costs=costs,
            validate=False,
        )


def _merge_identical(
    pins: np.ndarray, xpins: np.ndarray, sizes: np.ndarray
) -> np.ndarray | None:
    """Per net, the first net with the same (sorted) pin list; ``None``
    when no two nets share their size and both row hashes.

    Nets are grouped by (size, row hashes) with one stable ``lexsort``,
    so each group's head is its smallest index.  One gathered comparison
    checks every net against its head; a group that fails it (a hash
    collision) is regrouped exactly by its members' pin tuples.
    """
    m = len(sizes)
    h1, h2 = _row_hashes(pins, xpins[:-1])
    order = np.lexsort((h2, h1, sizes))
    s, a, b = sizes[order], h1[order], h2[order]
    new = np.ones(m, dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    if new.all():
        return None
    rep = np.empty(m, dtype=INDEX_DTYPE)
    rep[order] = order[np.maximum.accumulate(np.where(new, np.arange(m), 0))]
    shift = np.repeat(xpins[rep] - xpins[:-1], sizes)
    bad = pins[np.arange(len(pins)) + shift] != pins
    if bad.any():
        starts, ends = xpins[:-1].tolist(), xpins[1:].tolist()
        pins_l = pins.tolist()
        net_of = np.repeat(np.arange(m), sizes)
        for r in np.unique(rep[net_of[bad]]).tolist():
            seen: dict[tuple[int, ...], int] = {}
            for n in np.flatnonzero(rep == r).tolist():
                row = tuple(pins_l[starts[n] : ends[n]])
                rep[n] = seen.setdefault(row, n)
    return rep


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
