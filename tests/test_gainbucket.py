"""Tests for the gain-bucket priority structures: the reference
``GainBucket`` (``tests/graph_reference.py``) and the flat two-sided store
FM and greedy growing use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import hypergraph_from_netlists
from repro.partitioner.refine import FMCore
from tests import fm_reference
from tests.fm_reference import walk_order
from tests.conftest import hypergraphs
from tests.graph_reference import GainBucket


class TestBasics:
    def test_insert_and_best(self):
        b = GainBucket(5, 10)
        b.insert(0, 3)
        b.insert(1, -2)
        b.insert(2, 7)
        assert b.best() == 2
        assert b.max_gain() == 7
        assert len(b) == 3

    def test_pop_best_removes(self):
        b = GainBucket(3, 5)
        b.insert(0, 1)
        b.insert(1, 5)
        assert b.pop_best() == 1
        assert b.best() == 0
        assert len(b) == 1

    def test_remove_middle_of_list(self):
        b = GainBucket(4, 5)
        for v in (0, 1, 2):
            b.insert(v, 2)
        b.remove(1)
        got = {b.pop_best(), b.pop_best()}
        assert got == {0, 2}
        assert b.best() is None

    def test_adjust_moves_bucket(self):
        b = GainBucket(2, 10)
        b.insert(0, 1)
        b.insert(1, 2)
        b.adjust(0, 5)
        assert b.best() == 0
        b.adjust(0, -10)
        assert b.best() == 1

    def test_feasibility_filter(self):
        b = GainBucket(4, 5)
        b.insert(0, 5)
        b.insert(1, 3)
        b.insert(2, 1)
        assert b.best(lambda v: v != 0) == 1
        assert b.pop_best(lambda v: v == 2) == 2

    def test_best_empty(self):
        b = GainBucket(3, 5)
        assert b.best() is None
        assert b.pop_best() is None
        assert b.max_gain() is None

    def test_contains(self):
        b = GainBucket(2, 2)
        b.insert(0, 0)
        assert b.contains(0)
        assert not b.contains(1)

    def test_double_insert_rejected(self):
        b = GainBucket(2, 2)
        b.insert(0, 0)
        with pytest.raises(ValueError, match="already"):
            b.insert(0, 1)

    def test_remove_absent_rejected(self):
        b = GainBucket(2, 2)
        with pytest.raises(ValueError, match="not in bucket"):
            b.remove(1)

    def test_gain_out_of_range_rejected(self):
        b = GainBucket(2, 2)
        with pytest.raises(ValueError, match="outside bucket range"):
            b.insert(0, 3)

    def test_negative_max_gain_rejected(self):
        with pytest.raises(ValueError):
            GainBucket(1, -1)


class TestAgainstReference:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["ins", "pop", "adj"]), st.integers(0, 19),
                      st.integers(-8, 8)),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_dict_reference(self, ops):
        """Every op sequence behaves like a dict-based reference model."""
        n, mg = 20, 30
        b = GainBucket(n, mg)
        ref: dict[int, int] = {}
        for op, v, g in ops:
            if op == "ins" and v not in ref:
                b.insert(v, g)
                ref[v] = g
            elif op == "pop" and ref:
                got = b.pop_best()
                best_gain = max(ref.values())
                assert ref[got] == best_gain
                del ref[got]
            elif op == "adj" and v in ref:
                if abs(ref[v] + g) <= mg:
                    b.adjust(v, g)
                    ref[v] += g
        assert len(b) == len(ref)
        if ref:
            assert b.max_gain() == max(ref.values())


def _store(weights, nets, part, stored, touch=False):
    """An FMCore on a hypergraph with unit-cost *nets*, its gains computed
    and the vertices *stored* loaded into its flat bucket store."""
    h = hypergraph_from_netlists(len(weights), nets, vertex_weights=weights)
    core = FMCore(h, np.asarray(part))
    gains = core.compute_all_gains()
    vs = np.asarray(stored, dtype=np.int64)
    core.bk.load(vs, np.asarray(part)[vs], gains[vs], touch)
    return core


class TestCappedOrder:
    """The capped walk of the flat two-sided store (``refine.FMBuckets``)
    and its min-weight memo."""

    @given(
        hypergraphs(max_vertices=16, max_nets=14, weighted=True),
        st.integers(0, 2**16),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["move", "best", "best"]),
                st.integers(0, 15),
                st.integers(-1, 7),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_best_capped_is_reference_argmax(self, h, seed, touch, ops):
        """best_capped returns exactly the two-bucket reference's capped pick
        after any sequence of moves (removal, relinks and, with *touch*,
        inserts) — including repeated empty-handed calls and the memo reset
        on insert."""
        nv = h.num_vertices
        rng = np.random.default_rng(seed)
        part = rng.integers(0, 2, size=nv)
        stored = rng.permutation(nv)[: int(rng.integers(0, nv + 1))]
        core = FMCore(h, part)
        ref = fm_reference.ReferenceCore(h, part)
        gains = core.compute_all_gains()
        ref.compute_all_gains()
        core.bk.load(stored, part[stored], gains[stored], touch)
        bound = h.max_incident_cost()
        ref.buckets = (GainBucket(nv, bound), GainBucket(nv, bound))
        ref.insert_on_touch = touch
        for v in stored.tolist():
            ref.buckets[part[v]].insert(v, ref.gain[v])
        w = core.w
        for op, i, cap in ops:
            if op == "move":
                inside = [v for v in range(nv) if core.bk.inside[v]]
                if not inside:
                    continue
                v = inside[i % len(inside)]
                core.apply_move(v)  # unlinks and locks v
                ref.buckets[ref.part[v]].remove(v)
                ref.locked[v] = True
                ref.apply_move(v)
            else:
                s = i % 2
                want = ref.buckets[s].best(lambda u: w[u] <= cap)
                # twice: the second call may be answered by the memo
                assert core.bk.best_capped(s, w, cap) == want
                assert core.bk.best_capped(s, w, cap) == want
        assert core.gain == ref.gain
        assert core.bk.count == [len(ref.buckets[0]), len(ref.buckets[1])]

    def test_empty_walk_records_min_weight(self):
        # vertex 3 (side 1) shares a net with vertex 2 (side 0)
        core = _store([5, 3, 4, 1], [[2, 3]], [0, 0, 0, 1], [0, 1, 2])
        w, bk = core.w, core.bk
        assert bk.best_capped(0, w, 2) is None
        assert bk.wfloor[0] == 3
        # removal and relinks keep the floor a valid lower bound: moving
        # vertex 1 unlinks it, and moving vertex 3 relinks vertex 2 from
        # gain 1 to gain -1
        core.apply_move(1)
        core.apply_move(3)
        assert core.gain[2] == -1
        assert bk.wfloor[0] == 3
        assert bk.best_capped(0, w, 2) is None
        assert bk.best_capped(0, w, 4) == 2

    @pytest.mark.parametrize("bulk", [False, True])
    def test_insert_invalidates_memo(self, bulk):
        # only vertex 0 is stored; in boundary mode (touch) moving vertex 4
        # changes the gain of vertex 3 and so links it
        core = _store([5, 3, 4, 1, 2], [[3, 4]], [0, 0, 0, 0, 1], [0], touch=True)
        w, bk = core.w, core.bk
        assert bk.best_capped(0, w, 2) is None
        if bulk:
            bk.load(np.array([0, 3]), 0, np.array([core.gain[0], core.gain[3]]), True)
        else:
            core.apply_move(4)
        assert bk.best_capped(0, w, 2) == 3


class TestPickOracle:
    """``FMBuckets.pick`` against two reference walks plus the tie rule."""

    @given(
        hypergraphs(max_vertices=16, max_nets=14, weighted=True),
        st.integers(0, 2**16),
        st.booleans(),
        st.lists(
            st.one_of(
                st.tuples(st.just("move"), st.integers(0, 15)),
                st.tuples(
                    st.just("pick"), st.integers(-1, 7), st.integers(-1, 7),
                    st.booleans(),
                ),
            ),
            max_size=40,
        ),
    )
    @settings(deadline=None)
    def test_pick_is_reference_walks_and_tie_rule(self, h, seed, touch, ops):
        """After any sequence of moves (each unlinks its mover and relinks
        or, with *touch*, links the pins it changes), ``pick`` returns the
        higher gain of the two sides' reference capped walks, side 0 on a
        tie iff *heavy0*, and a moved stored vertex is unlinked, not
        movable and no longer counted."""
        nv = h.num_vertices
        rng = np.random.default_rng(seed)
        part = rng.integers(0, 2, size=nv)
        stored = rng.permutation(nv)[: int(rng.integers(0, nv + 1))]
        core = FMCore(h, part)
        ref = fm_reference.ReferenceCore(h, part)
        gains = core.compute_all_gains()
        ref.compute_all_gains()
        bk = core.bk
        bk.load(stored, part[stored], gains[stored], touch)
        bound = h.max_incident_cost()
        ref.buckets = (GainBucket(nv, bound), GainBucket(nv, bound))
        ref.insert_on_touch = touch
        for v in stored.tolist():
            ref.buckets[part[v]].insert(v, ref.gain[v])
        w = core.w
        for op in ops:
            if op[0] == "move":
                free = [v for v in range(nv) if core.movable[v]]
                if not free:
                    continue
                v = free[op[1] % len(free)]
                s = core.part[v]
                core.apply_move(v)
                if ref.buckets[s].contains(v):
                    ref.buckets[s].remove(v)
                ref.locked[v] = True
                ref.apply_move(v)
                assert not bk.inside[v] and not core.movable[v]
                assert v not in walk_order(bk.heads, bk.nxt, range(2 * bk.span))
            else:
                _, cap0, cap1, heavy0 = op
                v0 = ref.buckets[0].best(lambda u: w[u] <= cap0)
                v1 = ref.buckets[1].best(lambda u: w[u] <= cap1)
                if v0 is None or v1 is None:
                    want = v1 if v0 is None else v0
                else:
                    g0, g1 = ref.gain[v0], ref.gain[v1]
                    want = v0 if g0 > g1 or (g0 == g1 and heavy0) else v1
                # twice: the second call may be answered by the memo
                assert bk.pick(w, cap0, cap1, heavy0) == want
                assert bk.pick(w, cap0, cap1, heavy0) == want
            for s, b in enumerate(ref.buckets):
                chains = range((s + 1) * bk.span - 1, s * bk.span - 1, -1)
                assert walk_order(bk.heads, bk.nxt, chains) == walk_order(
                    b.heads, b.nxt, range(len(b.heads) - 1, -1, -1)
                )
            assert bk.count == [len(ref.buckets[0]), len(ref.buckets[1])]
        assert core.gain == ref.gain
