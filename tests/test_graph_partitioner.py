"""Tests for the multilevel graph partitioner (MeTiS analogue)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro._util import as_rng
from repro.graph import Graph, edge_cut, graph_from_sparse, partition_graph
from repro.graph.partitioner import (
    GraphCore,
    _grow,
    contract,
    fm_refine_graph,
    ggg_bisection,
    heavy_edge_matching,
    multilevel_graph_bisect,
)
from repro.partitioner.config import PartitionerConfig
from tests import graph_reference


def grid_graph(nx: int, ny: int) -> Graph:
    """nx x ny 4-neighbour grid."""
    n = nx * ny
    rows, cols = [], []
    for x in range(nx):
        for y in range(ny):
            v = x * ny + y
            if x + 1 < nx:
                rows += [v, v + ny]
                cols += [v + ny, v]
            if y + 1 < ny:
                rows += [v, v + 1]
                cols += [v + 1, v]
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return graph_from_sparse(a)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=p, random_state=rng, format="csr")
    a = a + a.T
    a.data[:] = np.ceil(a.data * 3)
    return graph_from_sparse(a)


@st.composite
def graphs(draw, max_vertices: int = 16) -> Graph:
    """Random graphs with zero-weight vertices, zero-weight and heavy edges,
    parallel edges and (often) several components."""
    n = draw(st.integers(0, max_vertices))
    vwgt = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    edges = []
    if n >= 2:
        ends = st.integers(0, n - 1)
        weights = st.sampled_from([0, 1, 1, 2, 3, 40, 1000])
        for u, v, w in draw(st.lists(st.tuples(ends, ends, weights), max_size=3 * n)):
            if u != v:
                edges += [(u, v, w), (v, u, w)]
    edges.sort(key=lambda e: e[0])
    src = np.array([e[0] for e in edges], dtype=np.int64)
    xadj = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return Graph(
        n,
        xadj,
        [e[1] for e in edges],
        adjwgt=[e[2] for e in edges],
        vwgt=vwgt,
    )


def _config(draw) -> PartitionerConfig:
    return PartitionerConfig(
        fm_passes=draw(st.integers(1, 4)),
        # 0 and 4 force boundary mode on these sizes
        fm_boundary_threshold=draw(st.sampled_from([0, 4, 4096])),
        fm_stall_min=draw(st.sampled_from([0, 2, 50])),
        coarsen_to=draw(st.integers(2, 8)),
    )


def _same_rng(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


class TestGraphOracle:
    """Graph FM and greedy growing on the flat store against the
    two-bucket reference in ``tests/graph_reference.py``."""

    @given(graphs(), st.data())
    def test_fm_matches_reference(self, g, data):
        draw = data.draw
        cfg = _config(draw)
        part = np.asarray(
            draw(st.lists(st.integers(0, 1), min_size=g.num_vertices,
                          max_size=g.num_vertices)),
            dtype=np.int64,
        )
        total = g.total_vertex_weight()
        # caps below the start's side weights make overweight starts
        # (rescue moves, and passes that keep moves of gain <= 0)
        maxw = (draw(st.integers(0, total + 2)), draw(st.integers(0, total + 2)))
        seed = draw(st.integers(0, 2**16))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = graph_reference.fm_refine_graph(g, part, maxw, cfg, ref_rng)
        got = fm_refine_graph(g, part, maxw, cfg, rng)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] == edge_cut(g, got[0])
        _same_rng(rng, ref_rng)

    @given(graphs(), st.data())
    def test_ggg_matches_reference(self, g, data):
        total = g.total_vertex_weight()
        target0 = data.draw(st.integers(0, total))
        max0 = target0 + data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 2**16))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = graph_reference.ggg_bisection(g, target0, max0, ref_rng)
        core, cut = _grow(g, target0, max0, rng)
        np.testing.assert_array_equal(core.part_array(), want)
        _same_rng(rng, ref_rng)
        # the growth's tracked cut and weights are the part's
        assert cut == edge_cut(g, want)
        w0 = int(g.vwgt[want == 0].sum())
        assert core.W == [w0, total - w0]

    def test_stops_after_a_pass_that_does_not_lower_the_cut(self):
        # side 0 holds all four path vertices but each side may hold two:
        # the first pass keeps two moves that raise the cut, and graph FM
        # then stops
        # (hypergraph FM would run a second pass and draw from the RNG)
        g = path_graph([1, 1, 1])
        cfg = PartitionerConfig(fm_passes=3)
        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        want = graph_reference.fm_refine_graph(g, np.zeros(4), (2, 2), cfg, ref_rng)
        got = fm_refine_graph(g, np.zeros(4), (2, 2), cfg, rng)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] == 1
        _same_rng(rng, ref_rng)
        one_pass = np.random.default_rng(3)
        one_pass.permutation(4)
        _same_rng(rng, one_pass)

    @given(graphs(max_vertices=24), st.data())
    def test_multilevel_bisect_matches_reference(self, g, data):
        cfg = _config(data.draw)
        total = g.total_vertex_weight()
        t0 = data.draw(st.integers(0, total))
        eps = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
        seed = data.draw(st.integers(0, 2**16))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = graph_reference.multilevel_graph_bisect(
            g, (t0, total - t0), eps, cfg, ref_rng
        )
        got = multilevel_graph_bisect(g, (t0, total - t0), eps, cfg, rng)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        _same_rng(rng, ref_rng)


def path_graph(weights, vwgt=None) -> Graph:
    """Path 0-1-...-n with the given edge weights."""
    n = len(weights) + 1
    rows = [i for i in range(n - 1)] + [i + 1 for i in range(n - 1)]
    cols = [i + 1 for i in range(n - 1)] + [i for i in range(n - 1)]
    src, dst, w = zip(*sorted(zip(rows, cols, list(weights) * 2)))
    xadj = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return Graph(n, xadj, dst, adjwgt=w, vwgt=vwgt)


class TestGraphCore:
    def test_setup_cut_and_gains_match_metric(self):
        g = random_graph(30, 0.2, 7)
        part = as_rng(8).integers(0, 2, size=30)
        core = GraphCore(g, part)
        cut, (pa, flags) = core.setup
        assert cut == edge_cut(g, part)
        gains = core.compute_all_gains(pa, flags)
        np.testing.assert_array_equal(gains, graph_reference._graph_gains(g, part))
        assert core.gain == gains.tolist()
        # a move changes the cut by minus the mover's gain, and keeps
        # every gain exact
        core.bk.load(np.arange(30), pa, gains, touch=False)
        for v in (3, 11, 3):
            cut -= core.gain[v]
            core.apply_move(v)
            now = core.part_array()
            assert cut == edge_cut(g, now)
            assert core.gain == graph_reference._graph_gains(g, now).tolist()
        assert core.W == [int(g.vwgt[now == s].sum()) for s in (0, 1)]

    def test_zero_weight_edge_relinks(self):
        # edge 0-1 has weight 0 and vertex 2 is isolated: every gain is 0.
        # Moving vertex 1 leaves vertex 0's gain as it is, but relinks it
        # to the head of its chain, ahead of vertex 2
        g = Graph(3, [0, 1, 2, 2], [1, 0], adjwgt=[0, 0])
        core = GraphCore(g, np.array([0, 0, 0]))
        gains = core.compute_all_gains()
        core.bk.load(np.array([0, 2]), 0, gains[[0, 2]], touch=False)
        assert core.bk.best_capped(0, core.w, 1) == 2  # the last one loaded
        core.movable[1] = False
        core.apply_move(1)
        assert core.gain[0] == 0
        assert core.bk.best_capped(0, core.w, 1) == 0

    def test_link_resets_min_weight_memo(self):
        # only vertex 0 is stored; in touch mode moving vertex 2 links its
        # light neighbour 1, which a cap below vertex 0's weight must find
        g = path_graph([1, 1], vwgt=[5, 1, 1])
        core = GraphCore(g, np.array([0, 0, 1]))
        gains = core.compute_all_gains()
        core.bk.load(np.array([0]), 0, gains[[0]], touch=True)
        assert core.bk.best_capped(0, core.w, 2) is None
        assert core.bk.wfloor[0] == 5
        core.movable[2] = False
        core.apply_move(2)
        assert core.bk.best_capped(0, core.w, 2) == 1


class TestCoarsening:
    def test_hem_valid_cmap(self):
        g = random_graph(50, 0.1, 0)
        cmap, nc = heavy_edge_matching(g, as_rng(1), max_cluster_weight=10)
        assert len(np.unique(cmap)) == nc
        assert np.bincount(cmap).max() <= 2

    def test_contract_preserves_weight(self):
        g = random_graph(40, 0.15, 2)
        cmap, nc = heavy_edge_matching(g, as_rng(3), max_cluster_weight=100)
        cg = contract(g, cmap, nc)
        assert cg.total_vertex_weight() == g.total_vertex_weight()
        assert cg.num_vertices == nc

    def test_contract_preserves_cut(self):
        """Edge cut of a coarse partition equals that of its projection."""
        g = random_graph(40, 0.15, 4)
        cmap, nc = heavy_edge_matching(g, as_rng(5), max_cluster_weight=100)
        cg = contract(g, cmap, nc)
        rng = as_rng(6)
        coarse_part = rng.integers(0, 3, size=nc)
        assert edge_cut(cg, coarse_part) == edge_cut(g, coarse_part[cmap])

    def test_contract_merges_parallel_edges(self):
        # triangle contracted to 2 vertices: edges (0-1),(0-2),(1-2) with
        # cmap [0,0,1] -> single coarse edge of weight 2
        a = sp.csr_matrix(
            (np.ones(6), ([0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1])), shape=(3, 3)
        )
        g = graph_from_sparse(a)
        cg = contract(g, np.array([0, 0, 1]), 2)
        assert cg.num_edges == 1
        assert cg.adjwgt.tolist() == [2, 2]


class TestRefinement:
    def test_never_worse(self):
        cfg = PartitionerConfig()
        for seed in range(6):
            g = random_graph(40, 0.12, seed)
            part = as_rng(seed + 10).integers(0, 2, size=40)
            before = edge_cut(g, part)
            new, cut = fm_refine_graph(
                g, part, (g.total_vertex_weight(),) * 2, cfg, as_rng(seed)
            )
            assert edge_cut(g, new) == cut <= before

    def test_repairs_swapped_pair(self):
        g = grid_graph(4, 4)
        part = np.array([0] * 8 + [1] * 8)
        part[0], part[8] = 1, 0  # swap across the natural split
        cfg = PartitionerConfig()
        new, cut = fm_refine_graph(g, part, (9, 9), cfg, as_rng(0))
        assert cut <= edge_cut(g, np.array([0] * 8 + [1] * 8))


class TestBisection:
    def test_grid_bisection_near_optimal(self):
        g = grid_graph(8, 8)
        cfg = PartitionerConfig()
        part, cut = multilevel_graph_bisect(g, (32, 32), 0.03, cfg, as_rng(0))
        # optimal straight cut = 8
        assert cut <= 12
        w0 = int(g.vwgt[part == 0].sum())
        assert 30 <= w0 <= 34

    def test_ggg_contiguous_on_path(self):
        g = grid_graph(1, 20)
        part = ggg_bisection(g, 10, 11, as_rng(3))
        assert edge_cut(g, part) <= 2


class TestPartitionGraph:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_valid_partition(self, k):
        g = random_graph(60, 0.1, 7)
        res = partition_graph(g, k, seed=0)
        assert res.part.min() >= 0 and res.part.max() < k
        assert res.edge_cut == edge_cut(g, res.part)

    def test_balance(self):
        g = grid_graph(8, 8)
        res = partition_graph(g, 4, config=PartitionerConfig(epsilon=0.03), seed=1)
        assert res.imbalance <= 0.05

    def test_deterministic(self):
        g = random_graph(50, 0.1, 8)
        r1 = partition_graph(g, 4, seed=99)
        r2 = partition_graph(g, 4, seed=99)
        assert np.array_equal(r1.part, r2.part)

    def test_quality_on_clustered_graph(self):
        # 4 dense cliques, sparse links: K=4 should cut only links
        blocks = []
        n, b = 32, 8
        rows, cols = [], []
        for blk in range(4):
            base = blk * b
            for i in range(b):
                for j in range(i + 1, b):
                    rows += [base + i, base + j]
                    cols += [base + j, base + i]
        for blk in range(3):
            u, v = blk * b, (blk + 1) * b
            rows += [u, v]
            cols += [v, u]
        a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        g = graph_from_sparse(a)
        res = partition_graph(g, 4, seed=0)
        assert res.edge_cut <= 6  # ideal 3

    def test_k1(self):
        g = random_graph(10, 0.2, 9)
        res = partition_graph(g, 1, seed=0)
        assert res.edge_cut == 0
        assert res.part.tolist() == [0] * 10

    def test_invalid_k(self):
        g = random_graph(5, 0.3, 10)
        with pytest.raises(ValueError):
            partition_graph(g, 0)

    def test_summary(self):
        g = random_graph(20, 0.2, 11)
        assert "edgecut=" in partition_graph(g, 2, seed=0).summary()
