"""Tests for the FM gain-bucket priority structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioner.gainbucket import GainBucket


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


class _OrderModel:
    """Reference model of the bucket walk order.

    A bucket walk visits higher gains first and, within one gain, the most
    recently linked vertex first (chains are LIFO).  So the model keys every
    stored vertex by ``(gain, stamp)``, where *stamp* increases with every
    insert and relink, and the capped best vertex is the key maximum among
    vertices that fit.
    """

    def __init__(self):
        self.key: dict[int, tuple[int, int]] = {}
        self.clock = 0

    def link(self, v: int, g: int) -> None:
        self.clock += 1
        self.key[v] = (g, self.clock)

    def best_capped(self, w: list[int], cap: int) -> int | None:
        fits = [v for v in self.key if w[v] <= cap]
        return max(fits, key=self.key.__getitem__, default=None)


class TestCappedOrder:
    N, MG = 16, 6
    ops = st.lists(
        st.tuples(
            st.sampled_from(["ins", "bulk", "rem", "move", "best", "best"]),
            st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
            st.integers(-6, 6),
            st.integers(-1, 7),
        ),
        max_size=80,
    )

    @given(st.lists(st.integers(0, 6), min_size=16, max_size=16), ops)
    @settings(max_examples=150, deadline=None)
    def test_best_capped_is_reference_argmax(self, w, ops):
        """best_capped returns exactly the reference's argmax of fitting
        vertices after any insert/bulk_insert/remove/move_to sequence —
        including repeated empty-handed calls and the memo reset on insert."""
        b = GainBucket(self.N, self.MG)
        ref = _OrderModel()
        for op, vs, g, cap in ops:
            if op == "ins" and vs[0] not in ref.key:
                b.insert(vs[0], g)
                ref.link(vs[0], g)
            elif op == "bulk":
                fresh = [v for v in vs if v not in ref.key]
                gains = [(g + i) % (2 * self.MG + 1) - self.MG for i in range(len(fresh))]
                b.bulk_insert(np.array(fresh), np.array(gains))
                for v, gv in zip(fresh, gains):
                    ref.link(v, gv)
            elif op == "rem" and vs[0] in ref.key:
                b.remove(vs[0])
                del ref.key[vs[0]]
            elif op == "move" and vs[0] in ref.key:
                b.move_to(vs[0], g)
                ref.link(vs[0], g)
            elif op == "best":
                # twice: the second call may be answered by the memo
                for _ in range(2):
                    got = b.best_capped(w, cap)
                    assert got == ref.best_capped(w, cap) == b.best(lambda v: w[v] <= cap)
        assert len(b) == len(ref.key)

    def test_empty_walk_records_min_weight(self):
        w = [5, 3, 4, 1]
        b = GainBucket(4, 3)
        for v, g in ((0, 1), (1, -2), (2, 3)):
            b.insert(v, g)
        assert b.best_capped(w, 2) is None
        assert b.wfloor == 3
        # removal and relinks keep the floor a valid lower bound
        b.remove(1)
        b.move_to(2, -3)
        assert b.wfloor == 3
        assert b.best_capped(w, 2) is None
        assert b.best_capped(w, 4) == 2

    @pytest.mark.parametrize("bulk", [False, True])
    def test_insert_invalidates_memo(self, bulk):
        w = [5, 3, 4, 1]
        b = GainBucket(4, 3)
        b.insert(0, 1)
        assert b.best_capped(w, 2) is None
        if bulk:
            b.bulk_insert(np.array([3]), np.array([-3]))
        else:
            b.insert(3, -3)
        assert b.best_capped(w, 2) == 3
