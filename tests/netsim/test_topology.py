"""Tests for node placement models and the proximity metric."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.netsim import ClusteredTopology, Coordinate, TorusTopology

seeds = st.integers(min_value=0, max_value=2**31)


class TestTorus:
    def test_points_in_unit_square(self):
        topo = TorusTopology()
        rng = random.Random(1)
        for _ in range(100):
            c = topo.place(rng)
            assert 0 <= c.x < 1 and 0 <= c.y < 1

    def test_distance_zero_to_self(self):
        topo = TorusTopology()
        c = Coordinate(0.3, 0.7)
        assert topo.distance(c, c) == 0.0

    def test_distance_wraps(self):
        topo = TorusTopology()
        a = Coordinate(0.05, 0.5)
        b = Coordinate(0.95, 0.5)
        assert topo.distance(a, b) == pytest.approx(0.1)

    def test_distance_symmetric(self):
        topo = TorusTopology()
        rng = random.Random(2)
        for _ in range(50):
            a, b = topo.place(rng), topo.place(rng)
            assert topo.distance(a, b) == pytest.approx(topo.distance(b, a))

    def test_max_distance_bounded(self):
        # On the unit torus no two points are farther than sqrt(2)/2.
        topo = TorusTopology()
        rng = random.Random(3)
        for _ in range(200):
            a, b = topo.place(rng), topo.place(rng)
            assert topo.distance(a, b) <= math.sqrt(2) / 2 + 1e-9

    @given(seeds)
    def test_triangle_inequality(self, seed):
        topo = TorusTopology()
        rng = random.Random(seed)
        a, b, c = topo.place(rng), topo.place(rng), topo.place(rng)
        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c) + 1e-9


class TestClustered:
    def test_requires_cluster_count(self):
        with pytest.raises(ValueError):
            ClusteredTopology(0)

    def test_placement_records_cluster(self):
        topo = ClusteredTopology(4, seed=5)
        rng = random.Random(6)
        c = topo.place(rng, cluster=2)
        assert c.cluster == 2

    def test_random_cluster_when_unspecified(self):
        topo = ClusteredTopology(4, seed=5)
        rng = random.Random(7)
        clusters = {topo.place(rng).cluster for _ in range(100)}
        assert clusters <= set(range(4))
        assert len(clusters) > 1

    def test_same_cluster_is_closer_than_cross_cluster(self):
        topo = ClusteredTopology(8, spread=0.02, seed=8)
        rng = random.Random(9)
        same = [
            topo.distance(topo.place(rng, 0), topo.place(rng, 0)) for _ in range(50)
        ]
        cross = [
            topo.distance(topo.place(rng, 0), topo.place(rng, 4)) for _ in range(50)
        ]
        assert sum(same) / len(same) < sum(cross) / len(cross)

    def test_cluster_wraps_modulo(self):
        topo = ClusteredTopology(3, seed=10)
        assert topo.centre(5) == topo.centre(2)


class TestMessageStats:
    def test_accumulates(self):
        from repro.netsim import MessageStats

        stats = MessageStats()
        stats.record_route(3, 1.5)
        stats.record_route(1, 0.5)
        stats.record_rpc(0.2)
        assert stats.routes == 2
        assert stats.hops == 4
        assert stats.mean_hops == 2.0
        assert stats.distance == pytest.approx(2.2)
        assert stats.direct_rpcs == 1

    def test_histogram(self):
        from repro.netsim import MessageStats

        stats = MessageStats()
        for hops in (2, 2, 3):
            stats.record_route(hops, 0)
        assert stats.hop_histogram() == {2: 2, 3: 1}

    def test_reset(self):
        from repro.netsim import MessageStats

        stats = MessageStats()
        stats.record_route(2, 1.0)
        stats.reset()
        assert stats.routes == 0 and stats.hops == 0 and stats.mean_hops == 0.0
