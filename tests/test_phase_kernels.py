"""Phase-route parity: the fast matching and K-way routes == reference.

Two V-cycle phases keep a second implementation under
``kernel="fast"``: matching (the single-term and scalar routes) and
K-way refinement (the flat sweep).  Each promises bit-identical output
to its reference loop.  This suite pins that promise with direct A/B
parity (size gates monkeypatched to force the fast paths on test-sized
inputs) and hypothesis harnesses over random instances, and checks that
the ``route`` span attribute names the path that actually ran.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_hypergraph
from repro._util import as_rng
from repro.core.finegrain import build_finegrain_model
from repro.hypergraph import Hypergraph, hypergraph_from_netlists
from repro.partitioner import PartitionerConfig
from repro.partitioner import coarsen as C
from repro.partitioner import kway as KW
from repro.partitioner import kernels as K
from repro.telemetry import TelemetryRecorder, use_recorder


# ----------------------------------------------------------------------
# matching: flat (scalar + dense-aux batching) == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["hcm", "hcc"])
def test_match_flat_matches_reference(scheme):
    for hseed, mseed in [(0, 5), (4, 9), (7, 1)]:
        h = random_hypergraph(as_rng(hseed), 150, 110, weighted=True)
        r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                 kernel="reference")
        r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                  kernel="fast")
        assert np.array_equal(r_ref[0], r_flat[0])
        assert r_ref[1] == r_flat[1]
        assert np.array_equal(r_ref[2], r_flat[2])


@pytest.mark.parametrize("scheme", ["hcm", "hcc"])
def test_match_flat_dense_aux_path_matches_reference(monkeypatch, scheme):
    """Force the per-vertex dense batched-scoring path (normally gated by
    _VERTEX_VECTOR_MIN / _DENSE_AUX_MIN) and require identical clustering."""
    monkeypatch.setattr(C, "_DENSE_AUX_MIN", 0)
    monkeypatch.setattr(C, "_VERTEX_VECTOR_MIN", 1)
    for hseed, mseed in [(2, 3), (6, 8)]:
        h = random_hypergraph(as_rng(hseed), 120, 100, max_net_size=10,
                              weighted=True)
        r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                 kernel="reference")
        r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme,
                                  kernel="fast")
        assert np.array_equal(r_ref[0], r_flat[0])
        assert r_ref[1] == r_flat[1]


@settings(max_examples=25, deadline=None)
@given(hseed=st.integers(0, 2**16), mseed=st.integers(0, 2**16),
       hcm=st.booleans())
def test_match_flat_matches_reference_hypothesis(hseed, mseed, hcm):
    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    scheme = "hcm" if hcm else "hcc"
    r_ref = C.match_vertices(h, as_rng(mseed), scheme=scheme, kernel="reference")
    r_flat = C.match_vertices(h, as_rng(mseed), scheme=scheme, kernel="fast")
    assert np.array_equal(r_ref[0], r_flat[0])
    assert r_ref[1] == r_flat[1]


def test_match_restricted_and_fixed_flat_matches_reference():
    """V-cycle restricted matching (part=) and fixed vertices take the
    same flat path; parity must hold there too."""
    h = random_hypergraph(as_rng(3), 100, 80, weighted=True)
    rng = as_rng(0)
    part = rng.integers(0, 2, size=h.num_vertices)
    fixed = np.full(h.num_vertices, -1, dtype=np.int64)
    fixed[:10] = rng.integers(0, 2, size=10)
    for kw in ({"part": part}, {"fixed": fixed}, {"part": part, "fixed": fixed}):
        r_ref = C.match_vertices(h, as_rng(5), kernel="reference", **kw)
        r_flat = C.match_vertices(h, as_rng(5), kernel="fast", **kw)
        assert np.array_equal(r_ref[0], r_flat[0])
        assert np.array_equal(r_ref[2], r_flat[2])


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
    r_ref = C.match_vertices(h, as_rng(mseed), kernel="reference", **kw)
    r_flat = C.match_vertices(h, as_rng(mseed), kernel="fast", **kw)
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
    C.match_vertices(h, as_rng(0), kernel="reference")
    assert not calls  # the reference kernel never takes the route
    rec = TelemetryRecorder()
    with use_recorder(rec):
        C.match_vertices(h, as_rng(0), kernel="fast")
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
    assert [s.attrs["route"] for s in rec.roots] == ["reference", "scalar"]


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
            h, 8, config=PartitionerConfig(kernel="fast", n_vcycles=1), seed=0
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
def test_kway_flat_matches_reference(monkeypatch, with_fixed):
    monkeypatch.setattr(KW, "_KWAY_VECTOR_MIN", 1)
    for hseed, seed, k in [(0, 1, 4), (6, 3, 8)]:
        h = random_hypergraph(as_rng(hseed), 160, 140, weighted=True)
        rng0 = as_rng(seed)
        part = rng0.integers(0, k, size=h.num_vertices)
        fixed = None
        if with_fixed:
            fixed = np.full(h.num_vertices, -1, dtype=np.int64)
            fixed[:12] = rng0.integers(0, k, size=12)
        p_ref = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="reference"), as_rng(seed + 1),
            fixed,
        )
        p_flat = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="fast"), as_rng(seed + 1),
            fixed,
        )
        assert np.array_equal(p_ref, p_flat)


@settings(max_examples=20, deadline=None)
@given(hseed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       k=st.integers(2, 8))
def test_kway_flat_matches_reference_hypothesis(hseed, seed, k):
    import unittest.mock as mock

    h = random_hypergraph(as_rng(hseed), 60, 50, weighted=True)
    part = as_rng(seed).integers(0, k, size=h.num_vertices)
    p_ref = KW.kway_refine(
        h, part, k, PartitionerConfig(kernel="reference"), as_rng(seed), None
    )
    with mock.patch.object(KW, "_KWAY_VECTOR_MIN", 1):
        p_flat = KW.kway_refine(
            h, part, k, PartitionerConfig(kernel="fast"), as_rng(seed), None
        )
    assert np.array_equal(p_ref, p_flat)


def _spy_routes(monkeypatch):
    """Record, in call order, the matcher and K-way sweep routes that ran.

    Only outermost calls count: the reference matcher delegates to the
    scalar loop's body, which must not log a second route.
    """
    ran = {"match": [], "kway": []}
    depth = [0]

    def spy(orig, phase, route):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                ran[phase].append(route)
            depth[0] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    for mod, name, phase, route in [
        (C, "_match_reference", "match", "reference"),
        (C, "_match_single_term", "match", "single-term"),
        (C, "_match_scalar", "match", "scalar"),
        (KW, "_kway_pass_ref", "kway", "reference"),
        (KW, "_kway_pass_flat", "kway", "flat-sweep"),
    ]:
        monkeypatch.setattr(mod, name, spy(getattr(mod, name), phase, route))
    return ran


@pytest.mark.parametrize("n, k, kernel, kway_route", [
    (300, 8, "fast", "flat-sweep"),
    (300, 8, "reference", "reference"),
    (40, 2, "fast", "reference"),  # boundary below _KWAY_VECTOR_MIN
])
def test_route_attrs_name_the_path_that_ran(monkeypatch, n, k, kernel, kway_route):
    """A traced 1D partition with K-way refinement: every ``coarsen.match``
    and ``kway`` span's ``route`` names the implementation that ran."""
    from repro.core.api import decompose

    ran = _spy_routes(monkeypatch)
    a = sp.random(n, n, density=0.05, random_state=3, format="csr")
    cfg = PartitionerConfig(
        kway_refine=True, kernel=kernel, tree_parallel=False, coarsen_to=16
    )
    rec = TelemetryRecorder()
    with use_recorder(rec):
        decompose(a, k, method="rownet", config=cfg, seed=0)
    spans = [s for root in rec.roots for s, _ in root.walk()]
    match_routes = [s.attrs["route"] for s in spans if s.name == "coarsen.match"]
    assert match_routes and match_routes == ran["match"]
    assert set(match_routes) == ({"reference"} if kernel == "reference" else {"scalar"})
    (kway,) = [s for s in spans if s.name == "kway"]
    assert kway.attrs["route"] == kway_route
    assert ran["kway"] and set(ran["kway"]) == {kway_route}


# ----------------------------------------------------------------------
# introspection: the kernel axis spans every phase
# ----------------------------------------------------------------------
def test_kernels_introspection_lists_all_phases():
    import repro

    info = repro.kernels()
    assert set(info["phases"]) == {
        "fm", "matching", "coarse_build", "initial", "kway"
    }
    assert info["phases"] == K.phase_kernels("fast")
    assert K.phase_kernels("flat") == K.phase_kernels("fast")
    assert K.phase_kernels("fast")["matching"] == ["single-term", "scalar"]
    assert K.phase_kernels("fast")["kway"] == ["flat-sweep", "reference"]
    # the reference kernel never takes a fast route
    assert set(
        route for routes in K.phase_kernels("python").values() for route in routes
    ) == {"reference"}
