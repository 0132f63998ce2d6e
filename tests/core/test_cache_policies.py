"""Tests for the GreedyDual-Size and LRU eviction policies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import GreedyDualSizePolicy, LRUPolicy, make_policy


class TestGreedyDualSize:
    def test_weight_is_inverse_size(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 100)
        assert p.weight(1) == pytest.approx(0.1)
        assert p.weight(2) == pytest.approx(0.01)

    def test_victim_is_min_weight(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 100)  # smaller H
        assert p.victim() == 2

    def test_eviction_inflates_offset(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 100)
        p.on_evict(p.victim())
        assert p.inflation == pytest.approx(0.01)
        # A new file now enters with H = L + 1/size.
        p.on_insert(3, 100)
        assert p.weight(3) == pytest.approx(0.02)

    def test_hit_refreshes_weight(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 100)
        p.on_insert(2, 100)
        p.on_evict(p.victim())  # L rises to 0.01
        p.on_hit(2) if p.victim() == 2 else None
        survivor = p.victim()
        p.on_hit(survivor)
        assert p.weight(survivor) == pytest.approx(p.inflation + 0.01)

    def test_recency_breaks_size_ties(self):
        """Equal-size files: after inflation, untouched files evict first."""
        p = GreedyDualSizePolicy()
        p.on_insert(1, 50)
        p.on_insert(2, 50)
        p.on_insert(3, 50)
        p.on_evict(p.victim())
        p.on_hit(2)  # 2's weight is now L + 1/50, above 3's
        assert p.victim() == 3

    def test_custom_cost_function(self):
        p = GreedyDualSizePolicy(cost_fn=lambda fid, size: 10.0 if fid == 1 else 1.0)
        p.on_insert(1, 100)
        p.on_insert(2, 100)
        assert p.victim() == 2  # 1 has 10x the cost, hence 10x the weight

    def test_remove_clears_entry(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 10)
        p.on_remove(1)
        assert p.victim() is None
        assert p.weight(1) is None

    def test_stale_heap_entries_skipped(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 10)
        p.on_hit(1)  # creates a stale heap entry
        p.on_insert(2, 1000)
        assert p.victim() == 2

    def test_zero_size_never_victim_first(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 0)  # infinite weight
        p.on_insert(2, 10)
        assert p.victim() == 2

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 10_000)),
                    min_size=1, max_size=50))
    def test_property_victim_always_minimal(self, inserts):
        p = GreedyDualSizePolicy()
        live = {}
        for fid, size in inserts:
            p.on_insert(fid, size)
            live[fid] = size
        victim = p.victim()
        assert victim in live
        # No live file may have a strictly smaller weight than the victim.
        vw = p.weight(victim)
        for fid in live:
            assert p.weight(fid) >= vw - 1e-12


class UncompactedGreedyDualSize(GreedyDualSizePolicy):
    """The policy with its heap left to grow: stale entries go only when
    ``victim`` pops them.  The reference for the victim order."""

    def _drop_stale_entries(self):
        pass


class TestGreedyDualSizeHeapIsBounded:
    def test_hits_on_a_cache_that_never_fills_leave_no_trail(self):
        p = GreedyDualSizePolicy()
        p.on_insert(1, 100)
        for _ in range(10_000):
            p.on_hit(1)
        assert len(p._heap) <= 2 + p._HEAP_SLACK
        assert p.victim() == 1

    def test_removals_leave_no_trail(self):
        p = GreedyDualSizePolicy()
        for fid in range(5_000):
            p.on_insert(fid, 1 + fid % 97)
        for fid in range(4_990):
            p.on_remove(fid)
        assert len(p._heap) <= 2 * 10 + p._HEAP_SLACK
        assert {fid for _, _, fid in p._heap} >= set(range(4_990, 5_000))
        assert p.victim() == 4_999  # the largest of the survivors

    @pytest.mark.parametrize("seed", range(6))
    def test_victim_sequence_is_that_of_the_uncompacted_heap(self, seed):
        import random

        rng = random.Random(seed)
        policies = GreedyDualSizePolicy(), UncompactedGreedyDualSize()
        live, victims = [], ([], [])
        for _ in range(6_000):
            op = rng.choices(["insert", "hit", "remove", "evict"], [4, 14, 2, 1])[0]
            if op == "insert" or not live:
                # Few distinct sizes, so equal H values are told apart by seq.
                fid, size = rng.getrandbits(40), rng.choice([1, 10, 10, 500])
                live.append(fid)
                for p in policies:
                    p.on_insert(fid, size)
            elif op == "hit":
                fid = rng.choice(live)
                for p in policies:
                    p.on_hit(fid)
            elif op == "remove":
                fid = live.pop(rng.randrange(len(live)))
                for p in policies:
                    p.on_remove(fid)
            else:
                for p, seen in zip(policies, victims):
                    seen.append(p.victim())
                    p.on_evict(seen[-1])
                live.remove(victims[0][-1])
        assert victims[0] == victims[1] and len(victims[0]) > 200
        assert policies[0].inflation == policies[1].inflation
        assert len(policies[0]._heap) < len(policies[1]._heap)
        assert len(policies[0]._heap) <= 2 * len(live) + policies[0]._HEAP_SLACK


class TestLRU:
    def test_victim_is_least_recent(self):
        p = LRUPolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 10)
        assert p.victim() == 1

    def test_hit_moves_to_back(self):
        p = LRUPolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 10)
        p.on_hit(1)
        assert p.victim() == 2

    def test_hit_on_absent_is_noop(self):
        p = LRUPolicy()
        p.on_insert(1, 10)
        p.on_hit(99)
        assert p.victim() == 1

    def test_reinsert_refreshes(self):
        p = LRUPolicy()
        p.on_insert(1, 10)
        p.on_insert(2, 10)
        p.on_insert(1, 10)
        assert p.victim() == 2

    def test_remove(self):
        p = LRUPolicy()
        p.on_insert(1, 10)
        p.on_remove(1)
        assert p.victim() is None

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=60))
    def test_property_victim_matches_reference_model(self, accesses):
        p = LRUPolicy()
        order = []
        for fid in accesses:
            if fid in order:
                order.remove(fid)
                p.on_hit(fid)
            else:
                p.on_insert(fid, 1)
            order.append(fid)
        assert p.victim() == order[0]


class TestFactory:
    def test_make_gds(self):
        assert isinstance(make_policy("gds"), GreedyDualSizePolicy)

    def test_make_lru(self):
        assert isinstance(make_policy("lru"), LRUPolicy)

    def test_make_none(self):
        assert make_policy("none") is None

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_policy("arc")
