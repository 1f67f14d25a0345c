"""Phase-route parity: the matching and K-way routes == their oracles.

Two V-cycle phases pick a route from the level's structure: matching
(the single-term and product routes) and K-way refinement (the flat
sweep, or the per-vertex sweep below a boundary size).  Each route
promises the output of its phase's reference body: the per-pin matcher
``coarsen._match_reference`` and the per-vertex sweep
``kway._kway_pass_ref``.  Tests reach the reference bodies through one
seam per phase — ``coarsen._pick_matcher`` and
``kway._KWAY_VECTOR_MIN`` — patched per level by the A/B and hypothesis
harnesses below, and for a whole ``decompose()`` by the end-to-end
oracle test.  The ``route`` span attribute must name the path that ran.
"""

from __future__ import annotations

import hashlib
import unittest.mock as mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_hypergraph
from repro._util import INDEX_DTYPE, as_rng, prefix_from_counts
from repro.core.finegrain import build_finegrain_model
from repro.hypergraph import Hypergraph, hypergraph_from_netlists
from repro.partitioner import PartitionerConfig
from repro.partitioner import coarsen as C
from repro.partitioner import kway as KW
from repro.telemetry import TelemetryRecorder, use_recorder


def _reference_matcher(h):
    return C._match_reference, "reference"


def _match_ref(h, rng, **kw):
    """``match_vertices`` with its seam patched to the per-pin oracle."""
    with mock.patch.object(C, "_pick_matcher", _reference_matcher):
        return C.match_vertices(h, rng, **kw)


def _kway(h, part, k, rng, fixed=None, flat=True):
    """``kway_refine`` forced onto the flat sweep or the per-vertex
    reference sweep through its boundary-size seam."""
    with mock.patch.object(KW, "_KWAY_VECTOR_MIN", 1 if flat else 1 << 62):
        return KW.kway_refine(h, part, k, PartitionerConfig(), rng, fixed)


# ----------------------------------------------------------------------
# matching: the product route == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["hcm", "hcc"])
def test_match_flat_matches_reference(scheme):
    for hseed, mseed in [(0, 5), (4, 9), (7, 1)]:
        h = random_hypergraph(as_rng(hseed), 150, 110, weighted=True)
        r_ref = _match_ref(h, as_rng(mseed), scheme=scheme)
        r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme)
        assert np.array_equal(r_ref[0], r_flat[0])
        assert r_ref[1] == r_flat[1]
        assert np.array_equal(r_ref[2], r_flat[2])


@settings(max_examples=25, deadline=None)
@given(hseed=st.integers(0, 2**16), mseed=st.integers(0, 2**16),
       hcm=st.booleans())
def test_match_flat_matches_reference_hypothesis(hseed, mseed, hcm):
    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    scheme = "hcm" if hcm else "hcc"
    r_ref = _match_ref(h, as_rng(mseed), scheme=scheme)
    r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme)
    assert np.array_equal(r_ref[0], r_flat[0])
    assert r_ref[1] == r_flat[1]


def test_match_restricted_and_fixed_flat_matches_reference():
    """V-cycle restricted matching (part=) and fixed vertices take the
    same product route; parity must hold there too."""
    h = random_hypergraph(as_rng(3), 100, 80, weighted=True)
    rng = as_rng(0)
    part = rng.integers(0, 2, size=h.num_vertices)
    fixed = np.full(h.num_vertices, -1, dtype=np.int64)
    fixed[:10] = rng.integers(0, 2, size=10)
    for kw in ({"part": part}, {"fixed": fixed}, {"part": part, "fixed": fixed}):
        r_ref = _match_ref(h, as_rng(5), **kw)
        r_flat = C.match_vertices(h, as_rng(5), **kw)
        assert np.array_equal(r_ref[0], r_flat[0])
        assert np.array_equal(r_ref[2], r_flat[2])


#: block budgets for the product route: one vertex's expansion per block,
#: and the whole level in one block
_BLOCKS = (1, 1 << 62)


def _assert_product_parity(h, mseed, **kw):
    """The product route, forced onto *h* at every block budget, makes the
    reference's clustering and records ``route=product``."""
    r_ref = _match_ref(h, as_rng(mseed), **kw)
    for block in _BLOCKS:
        rec = TelemetryRecorder()
        with mock.patch.object(C, "_PRODUCT_BLOCK", block), \
                mock.patch.object(C, "_is_single_term", lambda h: False), \
                use_recorder(rec):
            r_prod = C.match_vertices(h, as_rng(mseed), **kw)
        assert [s.attrs["route"] for s in rec.roots] == ["product"]
        assert np.array_equal(r_ref[0], r_prod[0]), f"block={block}"
        assert r_ref[1] == r_prod[1]
        assert np.array_equal(r_ref[2], r_prod[2])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), nv=st.integers(1, 40),
       nn=st.integers(0, 40), max_size=st.integers(1, 10),
       cost_hi=st.integers(0, 3), max_net_size=st.integers(1, 8),
       hcm=st.booleans(), with_part=st.booleans(), with_fixed=st.booleans(),
       max_cluster_weight=st.one_of(st.none(), st.integers(1, 6)))
def test_product_route_matches_reference_hypothesis(
    seed, nv, nn, max_size, cost_hi, max_net_size, hcm, with_part,
    with_fixed, max_cluster_weight,
):
    """Random multi-term levels: weighted (and zero-weight) vertices,
    zero-cost nets, single-pin nets, nets over ``max_net_size``, pins in
    unsorted storage order, fixed vertices, restricted ``part=``, and
    caps tight enough that top candidates fail and rows are walked."""
    rng = as_rng(seed)
    nets = [
        rng.permutation(nv)[: rng.integers(1, min(max_size, nv) + 1)].tolist()
        for _ in range(nn)
    ]
    h = hypergraph_from_netlists(
        nv, nets,
        vertex_weights=rng.integers(0, 4, size=nv),
        net_costs=rng.integers(0, cost_hi + 1, size=nn),
    )
    kw = {
        "scheme": "hcm" if hcm else "hcc",
        "max_net_size": max_net_size,
        "max_cluster_weight": max_cluster_weight,
    }
    if with_part:
        kw["part"] = rng.integers(0, 2, size=nv)
    if with_fixed:
        fixed = rng.integers(-1, 2, size=nv)
        kw["fixed"] = np.where(rng.random(nv) < 0.6, -1, fixed)
    _assert_product_parity(h, seed, **kw)


def test_product_fallback_walks_past_infeasible_top():
    """Vertex 0 scores 1 highest, but their cluster would exceed the cap:
    whichever of them is visited first walks its row, and 0 joins 2."""
    h = hypergraph_from_netlists(
        3, [[0, 1], [2, 0]], vertex_weights=[1, 3, 1], net_costs=[2, 1]
    )
    for mseed in range(4):
        cmap, nc, _ = C.match_vertices(h, as_rng(mseed), max_cluster_weight=3)
        assert nc == 2 and cmap[0] == cmap[2] != cmap[1]
        _assert_product_parity(h, mseed, max_cluster_weight=3)


def test_product_zero_cost_net_orders_ties():
    """A zero-cost net scores nothing but still touches: visiting 0, the
    reference meets 1 (net 0, cost 0) before 2, so 1 wins their 0.5 tie."""
    h = hypergraph_from_netlists(3, [[0, 1], [0, 2, 1]], net_costs=[0, 1])
    assert as_rng(1).permutation(3)[0] == 0  # seed 1 visits 0 first
    cmap, _, _ = C.match_vertices(h, as_rng(1), scheme="hcm")
    assert cmap[0] == cmap[1] != cmap[2]
    for mseed in range(4):
        _assert_product_parity(h, mseed, scheme="hcm")


@pytest.mark.parametrize("nv, nets, max_net_size", [
    (0, [], 300),  # no vertices
    (4, [[0], [3]], 300),  # single-pin nets only
    (5, [[0, 1, 2], [2, 3, 4]], 2),  # every net over max_net_size
])
def test_product_route_edge_cases(nv, nets, max_net_size):
    """With nothing to score, every vertex is its own cluster."""
    h = hypergraph_from_netlists(nv, nets)
    for block in _BLOCKS:
        with mock.patch.object(C, "_PRODUCT_BLOCK", block), \
                mock.patch.object(C, "_is_single_term", lambda h: False):
            cmap, nc, _ = C.match_vertices(h, as_rng(0), max_net_size=max_net_size)
        assert nc == nv and sorted(cmap.tolist()) == list(range(nv))
    _assert_product_parity(h, 0, max_net_size=max_net_size)


def test_csr_matmat_order_the_product_route_relies_on():
    """scipy's sparse product emits each row in reverse first-touch order
    (a zero-valued term still touches) and drops zero sums.  The product
    matching route (``coarsen._product_scores``) reads ties and
    first-touch order from exactly this layout."""
    # row 0 touches nets 2, 0 (score 0.0), 1 in that order, unsorted
    a = sp.csr_matrix(
        (np.array([0.5, 0.0, 1.0, 2.0]), np.array([2, 0, 1, 0]),
         np.array([0, 3, 4])),
        shape=(2, 3),
    )
    b = sp.csr_matrix(
        (np.ones(7), np.array([3, 1, 0, 2, 4, 0, 1]), np.array([0, 2, 4, 7])),
        shape=(3, 5),
    )
    s = a @ b
    # row 0 first-touches 4, 0, 1, 3, 2; vertex 3's sum is 0.0
    got = (s.indptr.tolist(), s.indices.tolist(), s.data.tolist())
    want = ([0, 4, 6], [2, 1, 0, 4, 1, 3], [1.0, 0.5, 1.5, 0.5, 2.0, 2.0])
    assert got == want, (
        "scipy's csr_matmat output layout changed; the 'product' matching "
        "route in repro.partitioner.coarsen depends on it"
    )


# ----------------------------------------------------------------------
# coarse build: the sort contraction == the per-net loop
# ----------------------------------------------------------------------
def _build_coarse_loop(h, cmap, n_clusters):
    """The per-net contraction loop, the oracle of ``C.build_coarse``:
    each net's pins are remapped and deduplicated, nets of fewer than two
    clusters dropped, and an identical net merged into the first one's
    slot with its cost added."""
    cw = np.bincount(
        cmap, weights=h.vertex_weights, minlength=n_clusters
    ).astype(INDEX_DTYPE)
    cmap_l = cmap.tolist()
    xpins = h.xpins.tolist()
    pins = h.pins.tolist()
    costs = h.net_costs.tolist()
    flat_pins: list[int] = []
    counts: list[int] = []
    new_costs: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    for n in range(h.num_nets):
        seg = sorted({cmap_l[p] for p in pins[xpins[n] : xpins[n + 1]]})
        if len(seg) < 2:
            continue
        idx = seen.get(tuple(seg))
        if idx is None:
            seen[tuple(seg)] = len(new_costs)
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
    )


def _assert_build_parity(h, cmap, n_clusters):
    got = C.build_coarse(h, cmap, n_clusters)
    want = _build_coarse_loop(h, cmap, n_clusters)
    assert got.num_vertices == want.num_vertices
    for field in ("xpins", "pins", "net_costs", "vertex_weights"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        assert np.array_equal(g, w), field
    return got


def _build_instance(seed, nv, nn, max_size, cost_hi, dup_frac, cmap_kind):
    """A random level to contract: unsorted pin lists (empty and
    single-pin ones included), permuted copies of earlier nets, costs
    down to 0, weighted vertices, and a cluster map that is random, the
    identity, or collapses everything into one cluster."""
    rng = as_rng(seed)
    nets = []
    for _ in range(nn):
        if nets and rng.random() < dup_frac:
            nets.append(rng.permutation(nets[rng.integers(len(nets))]).tolist())
        else:
            size = rng.integers(0, min(max_size, nv) + 1)
            nets.append(rng.permutation(nv)[:size].tolist())
    h = hypergraph_from_netlists(
        nv, nets,
        vertex_weights=rng.integers(0, 5, size=nv),
        net_costs=rng.integers(0, cost_hi + 1, size=len(nets)),
    )
    if cmap_kind == "identity":
        return h, np.arange(nv, dtype=INDEX_DTYPE), nv
    if cmap_kind == "one" and nv:
        return h, np.zeros(nv, dtype=INDEX_DTYPE), 1
    nc = int(rng.integers(1, nv + 1)) if nv else 0
    cmap = rng.permutation(np.r_[np.arange(nc), rng.integers(0, max(nc, 1), nv - nc)])
    return h, cmap.astype(INDEX_DTYPE), nc


_build_params = dict(
    seed=st.integers(0, 2**16), nv=st.integers(0, 30), nn=st.integers(0, 40),
    max_size=st.integers(1, 8), cost_hi=st.integers(0, 3),
    dup_frac=st.sampled_from([0.0, 0.3, 0.8]),
    cmap_kind=st.sampled_from(["random", "identity", "one"]),
)


@settings(max_examples=80, deadline=None)
@given(**_build_params)
def test_build_coarse_matches_loop_hypothesis(
    seed, nv, nn, max_size, cost_hi, dup_frac, cmap_kind
):
    h, cmap, nc = _build_instance(
        seed, nv, nn, max_size, cost_hi, dup_frac, cmap_kind
    )
    _assert_build_parity(h, cmap, nc)


def _colliding_row_hashes(clusters, starts):
    zero = np.zeros(len(starts), dtype=np.uint64)
    return zero, zero


@settings(max_examples=40, deadline=None)
@given(**_build_params)
def test_build_coarse_survives_hash_collisions(
    seed, nv, nn, max_size, cost_hi, dup_frac, cmap_kind
):
    """With a constant row hash every two nets of one size collide, so
    only the element-wise check and the exact regrouping keep different
    nets apart."""
    h, cmap, nc = _build_instance(
        seed, nv, nn, max_size, cost_hi, dup_frac, cmap_kind
    )
    with mock.patch.object(C, "_row_hashes", _colliding_row_hashes):
        _assert_build_parity(h, cmap, nc)


def test_build_coarse_collision_split_keeps_first_slots():
    """Nets 0, 1, 3 share size 2 and the (forced) hash, but only 0 and 3
    are identical: 3 folds into 0, 1 keeps its own slot, and net 2 is a
    different size."""
    h = hypergraph_from_netlists(
        5, [[0, 1], [2, 3], [0, 1, 4], [1, 0], [3, 4]],
        net_costs=[1, 2, 3, 4, 5],
    )
    cmap = np.arange(5, dtype=INDEX_DTYPE)
    with mock.patch.object(C, "_row_hashes", _colliding_row_hashes):
        hc = _assert_build_parity(h, cmap, 5)
    assert [hc.pins_of(n).tolist() for n in range(hc.num_nets)] == [
        [0, 1], [2, 3], [0, 1, 4], [3, 4]
    ]
    assert hc.net_costs.tolist() == [5, 2, 3, 5]


def test_build_coarse_span_counts_drops_and_merges():
    """Under the map below, nets [0, 1], [2] and [] keep fewer than two
    clusters (dropped), and [3, 2] and [1, 4] repeat [2, 3] and [0, 4]
    (merged).  Recording changes no output."""
    h = hypergraph_from_netlists(
        6, [[0, 1], [2], [], [2, 3], [3, 2], [4, 5], [0, 4], [1, 4]],
        net_costs=[1, 1, 1, 2, 3, 1, 4, 0],
    )
    cmap = np.array([0, 0, 1, 2, 3, 4], dtype=INDEX_DTYPE)
    plain = _assert_build_parity(h, cmap, 5)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        traced = C.build_coarse(h, cmap, 5)
    (span,) = rec.roots
    assert span.name == "coarsen.build"
    assert span.attrs["dropped"] == 3 and span.attrs["merged"] == 2
    assert plain.net_costs.tolist() == [5, 1, 4]
    for field in ("xpins", "pins", "net_costs", "vertex_weights"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field))


# ----------------------------------------------------------------------
# matching: the single-term route == reference
# ----------------------------------------------------------------------
def _finegrain_hypergraph(seed, m, n, density, consistency=False, cost_hi=2):
    """Fine-grain hypergraph of a random sparse matrix, with random vertex
    weights (including 0, like the model's dummies) and random net costs
    in ``0..cost_hi`` (ties and zero-cost nets)."""
    rng = as_rng(seed)
    a = sp.random(m, n, density=density, random_state=seed, format="csr")
    h = build_finegrain_model(a, consistency=consistency).hypergraph
    return Hypergraph(
        h.num_vertices, h.xpins, h.pins,
        vertex_weights=rng.integers(0, 3, size=h.num_vertices),
        net_costs=rng.integers(0, cost_hi + 1, size=h.num_nets),
    )


def _assert_match_parity(h, mseed, **kw):
    r_ref = _match_ref(h, as_rng(mseed), **kw)
    r_flat = C.match_vertices(h, as_rng(mseed), **kw)
    assert np.array_equal(r_ref[0], r_flat[0])
    assert r_ref[1] == r_flat[1]
    assert np.array_equal(r_ref[2], r_flat[2])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 30), n=st.integers(1, 30),
       density=st.floats(0.02, 0.5), cost_hi=st.integers(0, 3),
       max_net_size=st.integers(1, 8), hcm=st.booleans(),
       with_part=st.booleans(), with_fixed=st.booleans(),
       max_cluster_weight=st.one_of(st.none(), st.integers(1, 4)))
def test_single_term_route_matches_reference_hypothesis(
    seed, m, n, density, cost_hi, max_net_size, hcm, with_part, with_fixed,
    max_cluster_weight,
):
    h = _finegrain_hypergraph(seed, m, n, density, consistency=m == n,
                              cost_hi=cost_hi)
    assert C._is_single_term(h)
    rng = as_rng(seed + 1)
    kw = {
        "scheme": "hcm" if hcm else "hcc",
        "max_net_size": max_net_size,
        "max_cluster_weight": max_cluster_weight,
    }
    if with_part:
        kw["part"] = rng.integers(0, 2, size=h.num_vertices)
    if with_fixed:
        fixed = rng.integers(-1, 2, size=h.num_vertices)
        kw["fixed"] = np.where(rng.random(h.num_vertices) < 0.7, -1, fixed)
    _assert_match_parity(h, seed, **kw)


def _spy_single_term(monkeypatch):
    calls = []
    orig = C._match_single_term

    def spy(*a):
        calls.append(1)
        return orig(*a)

    monkeypatch.setattr(C, "_match_single_term", spy)
    return calls


def test_single_term_route_fires_on_finegrain_level(monkeypatch):
    calls = _spy_single_term(monkeypatch)
    h = _finegrain_hypergraph(3, 40, 40, 0.1, consistency=True)
    _match_ref(h, as_rng(0))
    assert not calls  # the patched seam never takes the route
    rec = TelemetryRecorder()
    with use_recorder(rec):
        C.match_vertices(h, as_rng(0))
    assert calls
    (span,) = rec.roots
    assert span.name == "coarsen.match"
    assert span.attrs["route"] == "single-term"
    assert 0 < rec.counter_totals()["coarsen.pins_visited"] < h.num_pins
    _assert_match_parity(h, 0)


@pytest.mark.parametrize("nets", [
    # vertex 0 has degree 3
    [[0, 1], [0, 2], [0, 3], [1, 2]],
    # degree <= 2, but vertices 0 and 1 share both nets: a two-term score
    [[0, 1, 2], [0, 1, 3], [2, 3]],
])
def test_single_term_route_stays_off(monkeypatch, nets):
    calls = _spy_single_term(monkeypatch)
    h = hypergraph_from_netlists(4, nets)
    assert not C._is_single_term(h)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        _assert_match_parity(h, 0)
    assert not calls
    assert [s.attrs["route"] for s in rec.roots] == ["reference", "product"]


def test_finest_levels_take_single_term_route():
    """In a traced fine-grain partition, the finest coarsening level of
    every bisection and every V-cycle runs the single-term route."""
    from repro.partitioner import partition_hypergraph

    h = build_finegrain_model(
        sp.random(60, 60, density=0.08, random_state=1, format="csr")
    ).hypergraph
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_hypergraph(
            h, 8, config=PartitionerConfig(n_vcycles=1), seed=0
        )
    finest = [
        (cs.attrs.get("restricted", False), m.attrs["route"])
        for root in rec.roots
        for cs, _ in root.walk()
        if cs.name == "coarsen"
        for lvl in cs.children
        if lvl.attrs["level"] == 0
        for m in lvl.children
        if m.name == "coarsen.match"
    ]
    assert {r for r, _ in finest} == {False, True}  # bisections + V-cycles
    assert {route for _, route in finest} == {"single-term"}


# ----------------------------------------------------------------------
# K-way refinement: flat sweep == reference sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("with_fixed", [False, True])
def test_kway_flat_matches_reference(with_fixed):
    for hseed, seed, k in [(0, 1, 4), (6, 3, 8)]:
        h = random_hypergraph(as_rng(hseed), 160, 140, weighted=True)
        rng0 = as_rng(seed)
        part = rng0.integers(0, k, size=h.num_vertices)
        fixed = None
        if with_fixed:
            fixed = np.full(h.num_vertices, -1, dtype=np.int64)
            fixed[:12] = rng0.integers(0, k, size=12)
        p_ref = _kway(h, part, k, as_rng(seed + 1), fixed, flat=False)
        p_flat = _kway(h, part, k, as_rng(seed + 1), fixed, flat=True)
        assert np.array_equal(p_ref, p_flat)


@settings(max_examples=20, deadline=None)
@given(hseed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       k=st.integers(2, 8))
def test_kway_flat_matches_reference_hypothesis(hseed, seed, k):
    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    part = as_rng(seed).integers(0, k, size=h.num_vertices)
    p_ref = _kway(h, part, k, as_rng(seed), flat=False)
    p_flat = _kway(h, part, k, as_rng(seed), flat=True)
    assert np.array_equal(p_ref, p_flat)


def _spy_routes(monkeypatch):
    """Record, in call order, the matcher and K-way sweep routes that ran."""
    ran = {"match": [], "kway": []}

    def spy(orig, phase, route):
        def wrapped(*args, **kwargs):
            ran[phase].append(route)
            return orig(*args, **kwargs)

        return wrapped

    for mod, name, phase, route in [
        (C, "_match_reference", "match", "reference"),
        (C, "_match_single_term", "match", "single-term"),
        (C, "_match_product", "match", "product"),
        (KW, "_kway_pass_ref", "kway", "reference"),
        (KW, "_kway_pass_flat", "kway", "flat-sweep"),
    ]:
        monkeypatch.setattr(mod, name, spy(getattr(mod, name), phase, route))
    return ran


def _use_reference_routes(monkeypatch):
    """Patch both seams: every level matches with the per-pin loop and
    every K-way pass runs the per-vertex sweep."""
    monkeypatch.setattr(C, "_pick_matcher", _reference_matcher)
    monkeypatch.setattr(KW, "_KWAY_VECTOR_MIN", 1 << 62)


#: ``routes`` is ``fast`` for the production routes and ``reference`` for
#: the oracles forced through the seams
@pytest.mark.parametrize("n, k, routes, kway_route", [
    (300, 8, "fast", "flat-sweep"),
    (300, 8, "reference", "reference"),
    (40, 2, "fast", "reference"),  # boundary below _KWAY_VECTOR_MIN
])
def test_route_attrs_name_the_path_that_ran(monkeypatch, n, k, routes, kway_route):
    """A traced 1D partition with K-way refinement: every ``coarsen.match``
    and ``kway`` span's ``route`` names the implementation that ran."""
    from repro.core.api import decompose

    if routes == "reference":
        _use_reference_routes(monkeypatch)
    ran = _spy_routes(monkeypatch)
    a = sp.random(n, n, density=0.05, random_state=3, format="csr")
    cfg = PartitionerConfig(kway_refine=True, tree_parallel=False, coarsen_to=16)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        decompose(a, k, method="rownet", config=cfg, seed=0)
    spans = [s for root in rec.roots for s, _ in root.walk()]
    match_routes = [s.attrs["route"] for s in spans if s.name == "coarsen.match"]
    assert match_routes and match_routes == ran["match"]
    assert set(match_routes) == ({"reference"} if routes == "reference" else {"product"})
    (kway,) = [s for s in spans if s.name == "kway"]
    assert kway.attrs["route"] == kway_route
    assert ran["kway"] and set(ran["kway"]) == {kway_route}
    # which route ran is named by route= alone: no span carries a kernel
    assert not any("kernel" in s.attrs for s in spans)


# ----------------------------------------------------------------------
# end to end: the production routes == the oracles, whole decompose()
# ----------------------------------------------------------------------
def _part_sha(part):
    return hashlib.sha256(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("instance, method", [
    ("sherman3@0.25", "finegrain"),
    ("dense-200", "columnnet"),
])
def test_fast_routes_match_reference_end_to_end(monkeypatch, instance, method):
    """One whole ``decompose()`` at K=8 with K-way refinement, production
    routes against the seams patched to the oracles: the same partition
    bits.  The unpatched run must take the fast routes, so the two runs
    execute different code."""
    from repro.core.api import decompose
    from repro.matrix.collection import load_collection_matrix

    if instance == "dense-200":
        a = sp.random(200, 200, density=0.15, format="csr",
                      rng=np.random.default_rng(11))
        a.data[:] = 1.0
    else:
        a = load_collection_matrix("sherman3", scale=0.25)
    cfg = PartitionerConfig(kway_refine=True, tree_parallel=False, n_workers=1)

    def run():
        rec = TelemetryRecorder()
        with use_recorder(rec):
            res = decompose(a, 8, method=method, config=cfg, seed=0)
        routes = {
            (s.name, s.attrs["route"])
            for root in rec.roots for s, _ in root.walk()
            if "route" in s.attrs
        }
        return res, routes

    fast, fast_routes = run()
    assert ("kway", "flat-sweep") in fast_routes
    assert ("coarsen.match", "product") in fast_routes
    if method == "finegrain":
        assert ("coarsen.match", "single-term") in fast_routes
    _use_reference_routes(monkeypatch)
    ref, ref_routes = run()
    assert ref_routes == {("coarsen.match", "reference"), ("kway", "reference")}
    assert _part_sha(fast.part) == _part_sha(ref.part)
    assert fast.cutsize == ref.cutsize


#: golden label -> K, for the goldens the oracles replay
_ORACLE_GOLDENS = {
    "hg-120x90-s1-k2-seed0": 2,
    "hg-120x90-s1-k8-seed0": 8,
    "sherman3-finegrain-k8-seed0": 8,
}


@pytest.mark.parametrize("label", list(_ORACLE_GOLDENS))
def test_reference_routes_replay_goldens(monkeypatch, label):
    """The oracles reproduce the recorded goldens too (the production
    routes replay them in ``tests/test_engine.py``)."""
    from tests.golden import check_golden
    from repro.core.api import decompose
    from repro.matrix.collection import load_collection_matrix
    from repro.partitioner import partition_hypergraph

    _use_reference_routes(monkeypatch)
    cfg = PartitionerConfig(tree_parallel=False)
    k = _ORACLE_GOLDENS[label]
    if label.startswith("hg-"):
        h = random_hypergraph(as_rng(1), 120, 90)
        res = partition_hypergraph(h, k, config=cfg, seed=0)
    else:
        a = load_collection_matrix("sherman3", scale=0.25)
        res = decompose(a, k, method="finegrain", config=cfg, seed=0)
    check_golden(label, res.part, res.cutsize)


# ----------------------------------------------------------------------
# introspection: the static route report spans every phase
# ----------------------------------------------------------------------
def test_kernels_introspection_lists_all_phases():
    import json

    import repro

    info = json.loads(json.dumps(repro.kernels()))
    assert info == {"phases": {
        "fm": ["reference"],
        "matching": ["single-term", "product"],
        "coarse_build": ["sort"],
        "initial": ["reference"],
        "kway": ["flat-sweep", "reference"],
    }}


def test_import_repro_without_numba_is_clean():
    """``import repro`` never pulls in numba."""
    import sys

    import repro  # noqa: F401

    assert "numba" not in sys.modules
