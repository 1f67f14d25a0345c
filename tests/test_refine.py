"""Tests for FM bisection refinement (invariant 6 of DESIGN.md)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import as_rng
from repro.hypergraph import Hypergraph, cutsize_connectivity, hypergraph_from_netlists
from repro.hypergraph.partition import compute_part_weights
from repro.partitioner import initial, refine
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.initial import ghg_bisection, initial_bisection, random_bisection
from repro.partitioner.refine import FMCore, fm_refine_bisection
from repro.telemetry import use_recorder
from tests import fm_reference
from tests.conftest import hypergraphs, random_hypergraph


def excess(h, part, maxw):
    w = compute_part_weights(h, part, 2)
    return max(0, int(w[0]) - maxw[0]) + max(0, int(w[1]) - maxw[1])


class TestFMCore:
    def test_cut_matches_metric(self):
        """The cut, pin counts and side weights a core reports: as
        construction counts them, as ``recount`` counts them after moves,
        and as GHG tracks the cut through its growth."""
        h = random_hypergraph(as_rng(0), 20, 15, weighted=True)
        part = as_rng(1).integers(0, 2, size=20)
        for source in ("construction", "recount", "ghg"):
            if source == "construction":
                core = FMCore(h, part)
                cut, (pa, pcs) = core.setup
                assert pa.tolist() == part.tolist()
            elif source == "recount":
                core = FMCore(h, part)
                for v in (3, 7, 11, 3):
                    core.apply_move(v)
                cut, (pa, pcs) = core.recount()
                assert pa.tolist() == core.part
            else:
                fixed = np.full(20, -1)
                fixed[:3] = [0, 1, 1]
                core, cut = initial._grow(h, 14, 16, as_rng(2), fixed)
                assert core.W[0] >= 14  # the growth moved several vertices
                pcs = core.pin_counts()
            now = np.array(core.part)
            assert cut == core.cut() == cutsize_connectivity(h, now)
            per_net = [
                [
                    int(np.count_nonzero(now[h.pins[h.xpins[n] : h.xpins[n + 1]]] == s))
                    for n in range(h.num_nets)
                ]
                for s in (0, 1)
            ]
            # entry 2 * n + s of the count array is net n's count on side s
            assert core.pc == pcs.reshape(-1, 2).T.tolist() == per_net
            assert core.W == [int(h.vertex_weights[now == s].sum()) for s in (0, 1)]

    def test_gains_match_definition(self):
        h = random_hypergraph(as_rng(2), 15, 12)
        part = as_rng(3).integers(0, 2, size=15)
        core = FMCore(h, part)
        core.compute_all_gains()
        base = cutsize_connectivity(h, part)
        for v in range(15):
            moved = part.copy()
            moved[v] ^= 1
            expected = base - cutsize_connectivity(h, moved)
            assert core.gain[v] == expected, f"vertex {v}"

    def test_apply_move_updates_incrementally(self):
        h = random_hypergraph(as_rng(4), 15, 12)
        part = as_rng(5).integers(0, 2, size=15)
        core = FMCore(h, part)
        core.compute_all_gains()
        rng = as_rng(6)
        cut = core.cut()
        for _ in range(10):
            v = int(rng.integers(15))
            g = core.gain[v]
            core.apply_move(v)
            # the move locks v; free it again, so every gain is maintained
            # and v may move again
            assert not core.movable[v]
            core.movable[v] = True
            cut -= g
            assert core.cut() == cut
            # gains of free vertices must match a fresh recomputation
            got = list(core.gain)
            core.compute_all_gains()
            assert got == core.gain

    def test_undo_restores_state(self):
        h = random_hypergraph(as_rng(7), 12, 10)
        part = as_rng(8).integers(0, 2, size=12)
        core = FMCore(h, part)
        core.compute_all_gains()
        before_pc = [list(core.pc[0]), list(core.pc[1])]
        before_W = list(core.W)
        core.apply_move(3)
        core.apply_move(5)
        core.undo_moves([3, 5])
        assert core.part[3] == part[3]
        assert core.part[5] == part[5]
        assert [list(core.pc[0]), list(core.pc[1])] == before_pc
        assert core.W == before_W


class TestRefinement:
    def test_never_worse(self):
        rng = as_rng(10)
        cfg = PartitionerConfig()
        for seed in range(10):
            h = random_hypergraph(as_rng(seed), 40, 35)
            part = as_rng(seed + 100).integers(0, 2, size=40)
            maxw = (25, 25)
            before = cutsize_connectivity(h, part)
            exc_before = excess(h, part, maxw)
            new, cut = fm_refine_bisection(h, part, maxw, cfg, rng)
            assert cutsize_connectivity(h, new) == cut
            exc_after = excess(h, new, maxw)
            assert exc_after <= exc_before
            if exc_after == exc_before:
                assert cut <= before

    def test_finds_obvious_improvement(self):
        # two cliques wired internally; a swapped pair should be repaired.
        # One unit of balance slack is required: FM realizes the swap as two
        # sequential moves through a (5, 3) intermediate state.
        nets = [[0, 1, 2, 3], [4, 5, 6, 7]]
        h = hypergraph_from_netlists(8, nets)
        part = np.array([0, 0, 0, 1, 1, 1, 1, 0])  # 3 and 7 swapped
        cfg = PartitionerConfig()
        new, cut = fm_refine_bisection(h, part, (5, 5), cfg, as_rng(0))
        assert cut == 0
        assert excess(h, new, (5, 5)) == 0
        assert len(set(new[:4].tolist())) == 1
        assert len(set(new[4:].tolist())) == 1

    def test_fixed_vertices_never_move(self):
        h = random_hypergraph(as_rng(11), 30, 25)
        part = as_rng(12).integers(0, 2, size=30)
        fixed = np.full(30, -1, dtype=np.int64)
        fixed[:5] = part[:5]
        cfg = PartitionerConfig()
        new, _ = fm_refine_bisection(h, part, (20, 20), cfg, as_rng(13), fixed=fixed)
        assert np.array_equal(new[:5], part[:5])

    def test_rebalances_infeasible_input(self):
        h = hypergraph_from_netlists(10, [[i, (i + 1) % 10] for i in range(10)])
        part = np.zeros(10, dtype=np.int64)  # everything on side 0
        cfg = PartitionerConfig()
        maxw = (6, 6)
        new, _ = fm_refine_bisection(h, part, maxw, cfg, as_rng(0))
        assert excess(h, new, maxw) == 0

    def test_boundary_mode_consistent(self):
        """Boundary-seeded FM must still report the true cutsize."""
        h = random_hypergraph(as_rng(20), 60, 50)
        part = as_rng(21).integers(0, 2, size=60)
        cfg = PartitionerConfig(fm_boundary_threshold=10)  # force boundary mode
        new, cut = fm_refine_bisection(h, part, (40, 40), cfg, as_rng(22))
        assert cutsize_connectivity(h, new) == cut

    @given(hypergraphs(weighted=True), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_property_reported_cut_is_true_cut(self, h, seed):
        rng = as_rng(seed)
        part = rng.integers(0, 2, size=h.num_vertices)
        total = h.total_vertex_weight()
        maxw = (total, total)  # no balance constraint: pure cut descent
        cfg = PartitionerConfig(fm_passes=2)
        new, cut = fm_refine_bisection(h, part, maxw, cfg, rng)
        assert cutsize_connectivity(h, new) == cut
        assert cut <= cutsize_connectivity(h, part)


@st.composite
def tight_instances(draw):
    """Weighted hypergraph, bisection, fixed vertices and side caps so
    tight that few moves fit (often one side starts overweight)."""
    h = draw(hypergraphs(max_vertices=14, max_nets=12, weighted=True))
    nv = h.num_vertices
    rng = as_rng(draw(st.integers(0, 2**16)))
    part = rng.integers(0, 2, size=nv)
    p_fixed = draw(st.sampled_from([0.0, 0.2, 0.5]))
    fixed = np.where(rng.random(nv) < p_fixed, part, -1)
    total = h.total_vertex_weight()
    half = total // 2
    maxw = (
        max(0, half + draw(st.integers(-2, 3))),
        max(0, total - half + draw(st.integers(-2, 3))),
    )
    boundary_threshold = draw(st.sampled_from([0, 100]))
    return h, part, fixed, maxw, boundary_threshold, draw(st.integers(0, 1000))


@st.composite
def wide_hypergraphs(draw):
    """Weighted hypergraphs of up to 10 vertices and 20 nets of 2 or more
    pins: a vertex shares pins with most others through several nets."""
    nv = draw(st.integers(2, 10))
    nets = [
        draw(st.lists(st.integers(0, nv - 1), min_size=2, max_size=nv, unique=True))
        for _ in range(draw(st.integers(1, 20)))
    ]
    weights = draw(st.lists(st.integers(0, 5), min_size=nv, max_size=nv))
    costs = draw(st.lists(st.integers(0, 4), min_size=len(nets), max_size=len(nets)))
    return hypergraph_from_netlists(nv, nets, vertex_weights=weights, net_costs=costs)


@st.composite
def oracle_instances(
    draw, graphs=hypergraphs(max_vertices=16, max_nets=14, weighted=True)
):
    """An FM/GHG input drawn to reach every branch of the move kernel.

    Zero vertex weights and zero net costs come from ``hypergraphs``; unit
    weights instead make equal side weights, and so the heavier-side tie
    rule, common.  The part vector is often skewed so one side starts
    overweight (the rescue walk), fixed vertices are mixed in, a threshold
    of 0 puts the pass in boundary mode (insert-on-touch), and caps within
    a few units of half the total weight make capped walks come back empty
    (the memo).
    """
    h = draw(graphs)
    nv = h.num_vertices
    if draw(st.booleans()):
        h = Hypergraph(nv, h.xpins, h.pins, net_costs=h.net_costs)
    rng = as_rng(draw(st.integers(0, 2**16)))
    p1 = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    part = (rng.random(nv) < p1).astype(np.int64)
    p_fixed = draw(st.sampled_from([0.0, 0.2, 0.5]))
    fixed = np.where(rng.random(nv) < p_fixed, part, -1)
    total = h.total_vertex_weight()
    half = total // 2
    maxw = (
        max(0, half + draw(st.integers(-3, 3))),
        max(0, total - half + draw(st.integers(-3, 3))),
    )
    cfg = PartitionerConfig(
        fm_boundary_threshold=draw(st.sampled_from([0, 6, 100])),
        fm_stall_min=draw(st.sampled_from([0, 2, 50])),
    )
    return h, part, fixed, maxw, cfg, draw(st.integers(0, 1000))


def _fm_state(core, rng):
    return core.part, core.pc, core.W, core.gain, rng.bit_generator.state


class TestOracle:
    """The flat move kernel against the two-bucket reference in
    ``tests/fm_reference.py``: whole state after every pass and every GHG
    run, bit for bit."""

    @given(oracle_instances())
    @example((  # equal gains on both sides at equal side weights: the tie rule
        hypergraph_from_netlists(4, [[0, 2], [1, 3]]),
        np.array([0, 0, 1, 1]), np.full(4, -1), (3, 3), PartitionerConfig(), 0,
    ))
    @settings(deadline=None)
    def test_fm_passes_match_reference(self, inst):
        h, part, fixed, maxw, cfg, seed = inst
        core, rng = FMCore(h, part, fixed), as_rng(seed)
        ref, ref_rng = fm_reference.ReferenceCore(h, part, fixed), as_rng(seed)
        for _ in range(3):
            got = refine._fm_pass(core, maxw, cfg, rng)
            want = fm_reference.fm_pass(ref, maxw, cfg, ref_rng)
            assert got == want
            assert _fm_state(core, rng) == _fm_state(ref, ref_rng)

    @given(oracle_instances())
    @settings(deadline=None)
    def test_ghg_matches_reference(self, inst):
        h, _, fixed, maxw, _, seed = inst
        target0 = maxw[0] // 2 + seed % 3
        cores = []

        class Recorded(FMCore):
            def __init__(self, *args):
                super().__init__(*args)
                cores.append(self)

        rng, ref_rng = as_rng(seed), as_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(initial, "FMCore", Recorded)
            got = ghg_bisection(h, target0, maxw[0], rng, fixed)
        ref = fm_reference.ghg(h, target0, maxw[0], ref_rng, fixed)
        assert got.tolist() == ref.part
        assert _fm_state(cores[0], rng) == _fm_state(ref, ref_rng)

    @given(oracle_instances())
    @settings(deadline=None)
    def test_initial_bisection_matches_reference(self, inst):
        """``initial_bisection``, whose GHG starts hand their core to FM,
        against the composition it replaced: reference GHG, then up to
        ``cfg.fm_passes`` reference passes on a fresh core built from its
        part, keeping the best (excess, cut) over the starts."""
        h, _, fixed, maxw, cfg, seed = inst
        targets = (maxw[0] // 2 + seed % 3, maxw[1] // 2)
        rng, ref_rng = as_rng(seed), as_rng(seed)
        with use_recorder() as rec:
            got = initial_bisection(h, targets, maxw, cfg, rng, fixed)
        (span,) = rec.roots

        best = None
        for s in range(cfg.n_initial_starts):
            if s % 3 == 2:
                raw = random_bisection(h, targets[0], maxw[0], ref_rng, fixed)
            else:
                grown = fm_reference.ghg(h, targets[0], maxw[0], ref_rng, fixed)
                raw = np.array(grown.part)
            core = fm_reference.ReferenceCore(h, raw, fixed)
            cut = cutsize_connectivity(h, raw)
            for _ in range(cfg.fm_passes):
                gain, kept, _ = fm_reference.fm_pass(core, maxw, cfg, ref_rng)
                cut -= gain
                if gain <= 0 and not kept:
                    break
            key = (refine._excess(core.W, maxw), cut)
            if best is None or key < best[0]:
                best = (key, list(core.part))
        assert got.tolist() == best[1]
        assert (span.attrs["excess"], span.attrs["cut"]) == best[0]
        assert cutsize_connectivity(h, got) == best[0][1]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _WalkedCore(FMCore):
    """An :class:`FMCore` that records both sides' walk order after each move."""

    def __init__(self, *args):
        super().__init__(*args)
        self.walks = []

    def apply_move(self, v, grow=False):
        super().apply_move(v, grow)
        bk = self.bk
        sides = (range(bk.span - 1, -1, -1), range(2 * bk.span - 1, bk.span - 1, -1))
        self.walks.append(
            [fm_reference.walk_order(bk.heads, bk.nxt, side) for side in sides]
        )


class _WalkedReference(fm_reference.ReferenceCore):
    """The reference core, recording its buckets' walk order after each move."""

    def __init__(self, *args):
        super().__init__(*args)
        self.walks = []

    def apply_move(self, v):
        super().apply_move(v)
        self.walks.append([
            fm_reference.walk_order(b.heads, b.nxt, range(len(b.heads) - 1, -1, -1))
            for b in self.buckets
        ])


#: moving vertex 0 hits vertex 1 through three nets and vertex 2 through
#: two; net 2 costs nothing and vertex 4 is fixed
_SHARED_PINS = hypergraph_from_netlists(
    6,
    [[0, 1, 2, 3], [0, 1, 2], [0, 1, 4], [0, 3, 5], [1, 5]],
    vertex_weights=[1, 1, 1, 1, 1, 1],
    net_costs=[2, 1, 0, 3, 1],
)


class TestDedupOracle:
    """The deduplicated move route (``FMCore._dedup_move``) against the
    two-bucket reference, with both gates at 0 so every move takes it.

    Dense nets make a moving vertex reach most pins through several of its
    nets.  After every move both sides' walk order must match; after every
    pass or growth the part vector, pin counts, side weights, gains and
    RNG state too.
    """

    @pytest.fixture(autouse=True)
    def _every_move_dedups(self, monkeypatch):
        monkeypatch.setattr(refine, "_DEDUP_DEGREE", 0)
        monkeypatch.setattr(refine, "_DEDUP_EVENTS", 0)

    @given(oracle_instances(wide_hypergraphs()))
    @example((  # boundary mode: the pass links touched pins as it goes
        _SHARED_PINS, np.array([0, 0, 1, 1, 1, 1]), np.array([-1, -1, -1, -1, 1, -1]),
        (4, 4), PartitionerConfig(fm_boundary_threshold=0), 3,
    ))
    @example((  # the moves relink pins hit through both nets in last-event order
        hypergraph_from_netlists(4, [[0, 1, 2], [0, 2, 3]]), np.array([1, 1, 0, 0]),
        np.full(4, -1), (4, 4), PartitionerConfig(), 2,
    ))
    @settings(deadline=None)
    def test_fm_passes_match_reference(self, inst):
        h, part, fixed, maxw, cfg, seed = inst
        core, rng = _WalkedCore(h, part, fixed), as_rng(seed)
        ref, ref_rng = _WalkedReference(h, part, fixed), as_rng(seed)
        with use_recorder() as rec:
            for _ in range(3):
                got = refine._fm_pass(core, maxw, cfg, rng)
                want = fm_reference.fm_pass(ref, maxw, cfg, ref_rng)
                assert got == want
                assert core.walks == ref.walks
                assert _fm_state(core, rng) == _fm_state(ref, ref_rng)
        assert rec.counter_totals().get("fm.dedup_moves", 0) == len(core.walks)

    @given(oracle_instances(wide_hypergraphs()))
    @example((
        _SHARED_PINS, np.ones(6, dtype=np.int64), np.array([-1, -1, -1, -1, 1, -1]),
        (4, 4), PartitionerConfig(), 3,
    ))
    @settings(deadline=None)
    def test_ghg_matches_reference(self, inst):
        h, _, fixed, maxw, _, seed = inst
        target0 = maxw[0] // 2 + seed % 3
        rng, ref_rng = as_rng(seed), as_rng(seed)
        with pytest.MonkeyPatch.context() as mp, use_recorder() as rec:
            mp.setattr(initial, "FMCore", _WalkedCore)
            core, _ = initial._grow(h, target0, maxw[0], rng, fixed)
            mp.setattr(fm_reference, "ReferenceCore", _WalkedReference)
            ref = fm_reference.ghg(h, target0, maxw[0], ref_rng, fixed)
        # growing stores side 1 only: the reference's side-0 bucket is empty
        assert core.walks == ref.walks
        assert _fm_state(core, rng) == _fm_state(ref, ref_rng)
        assert rec.counter_totals().get("fm.dedup_moves", 0) == len(core.walks)

    def test_linking_on_touch_resets_the_memo(self):
        # side 0 stores only vertex 0 (weight 5), so a walk capped at 2
        # finds nothing and records 5; moving vertex 4 then links vertex 3
        # (weight 1) in boundary mode, and the next walk must see it
        h = hypergraph_from_netlists(5, [[3, 4]], vertex_weights=[5, 3, 4, 1, 2])
        core = FMCore(h, np.array([0, 0, 0, 0, 1]))
        gains = core.compute_all_gains()
        core.bk.load(np.array([0]), 0, gains[:1], touch=True)
        assert core.bk.best_capped(0, core.w, 2) is None
        with use_recorder() as rec:
            core.apply_move(4)
        assert rec.counter_totals()["fm.dedup_moves"] == 1
        assert core.bk.best_capped(0, core.w, 2) == 3


class TestExactExits:
    """The no-move exit and the min-weight memo never change a result."""

    @given(tight_instances())
    @settings(max_examples=80, deadline=None)
    def test_fm_ghg_initial_identical_without_exits(self, inst):
        h, part, fixed, maxw, threshold, seed = inst
        cfg = PartitionerConfig(fm_boundary_threshold=threshold)

        def run():
            out = []
            rng = as_rng(seed)
            new, cut = fm_refine_bisection(h, part, maxw, cfg, rng, fixed)
            out.append((new.tolist(), cut))
            out.append(ghg_bisection(h, maxw[0] // 2, maxw[0], rng, fixed).tolist())
            targets = (maxw[0] // 2, maxw[1] // 2)
            out.append(initial_bisection(h, targets, maxw, cfg, rng, fixed).tolist())
            out.append(rng.bit_generator.state)
            return out

        fast = run()
        # the same calls with the no-move exit and the best_capped memo off:
        # every pass loads its buckets, every capped selection walks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine, "_any_first_move", lambda *args: True)
            mp.setattr(
                refine.FMBuckets,
                "best_capped",
                lambda self, s, w, cap: self.best(s, lambda v: w[v] <= cap),
            )
            assert run() == fast

    def test_may_move_is_the_cap_or_rescue_rule(self):
        """The shared predicate equals the literal rule, on ints and arrays."""
        grid = range(-1, 5)
        cases = [
            (wv, wf, mf, wt, mt)
            for wv in range(0, 4)
            for wf in grid
            for mf in grid
            for wt in grid
            for mt in grid
        ]
        literal = [
            wv <= mt - wt or (wf > mf and max(0, wt + wv - mt) < min(wv, wf - mf))
            for wv, wf, mf, wt, mt in cases
        ]
        assert [refine._may_move(*c) for c in cases] == literal
        cols = [np.array(c, dtype=np.int64) for c in zip(*cases)]
        assert refine._may_move(*cols).tolist() == literal

    def test_no_move_call_keeps_part_and_draws_one_permutation(self):
        # every side sits at its cap and no vertex weighs 0: nothing fits
        h = hypergraph_from_netlists(
            4, [[0, 2], [1, 3], [0, 1]], vertex_weights=[3, 3, 3, 3]
        )
        part = np.array([0, 0, 1, 1])
        rng = as_rng(7)
        with pytest.MonkeyPatch.context() as mp, use_recorder() as rec:
            # the exit comes before any gain is computed or bucket loaded
            mp.setattr(FMCore, "compute_all_gains", None)
            mp.setattr(refine.FMBuckets, "load", None)
            new, cut = fm_refine_bisection(h, part, (6, 6), PartitionerConfig(), rng)
        assert new.tolist() == part.tolist()
        assert cut == cutsize_connectivity(h, part) == 2
        expected = as_rng(7)
        expected.permutation(4)
        assert rng.bit_generator.state == expected.bit_generator.state
        totals = rec.counter_totals()
        assert totals["fm.passes"] == 1
        assert totals["fm.idle_passes"] == 1
        assert totals.get("fm.moves", 0) == 0
        assert totals.get("fm.rollbacks", 0) == 0


def test_fm_counters_pinned_on_finegrain_sherman3():
    """FM pass/move/rollback totals of a traced fine-grain K=16 run.

    The values were recorded before FM gained its no-move exit: idle passes
    still count as passes with no moves and no rollbacks.  They pin the
    legacy recursion stream, so the mode is forced off even when the suite
    runs under REPRO_TREE_PARALLEL=1.
    """
    from repro.core.api import decompose_2d_finegrain
    from repro.matrix.collection import load_collection_matrix

    a = load_collection_matrix("sherman3", scale=0.1)
    with use_recorder() as rec:
        _, res = decompose_2d_finegrain(
            a, 16, seed=0, config=PartitionerConfig(tree_parallel=False)
        )
    totals = rec.counter_totals()
    assert res.cutsize == 202
    assert totals["fm.passes"] == 176
    assert totals["fm.moves"] == 386
    assert totals["fm.rollbacks"] == 5422
    assert totals["fm.cut_delta"] == 93
    assert 0 < totals["fm.idle_passes"] < totals["fm.passes"]
