"""The join seed search: the proximity grid against the full scan it replaced.

``scan`` is ``PastryNetwork._nearest_by_proximity`` as it was before the
grid: the live node nearest to a point, ties to the first in ``_nodes``
order (registration order; a recovered node re-registers at the end).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import ClusteredTopology, Coordinate, TorusTopology
from repro.pastry import PastryNetwork


def scan(net, coord):
    return min(net._nodes.values(), key=lambda n: net.topology.distance(coord, n.coord))


class RepeatingTorus(TorusTopology):
    """Places every node on one of three points, so distances tie exactly."""

    POINTS = ((0.25, 0.25), (0.75, 0.75), (0.25, 0.75))

    def place(self, rng, cluster=None):
        x, y = self.POINTS[rng.randrange(len(self.POINTS))]
        return Coordinate(x, y, cluster)


class OnePointTorus(TorusTopology):
    def place(self, rng, cluster=None):
        return Coordinate(0.5, 0.5, cluster)


class CountingTorus(TorusTopology):
    def __init__(self):
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return super().distance(a, b)


TOPOLOGIES = {
    "torus": TorusTopology,
    "clustered": lambda: ClusteredTopology(4, spread=0.05, seed=5),
    "repeating": RepeatingTorus,
}

unit = st.floats(min_value=0.0, max_value=1.0)
membership = st.lists(
    st.tuples(st.sampled_from(["join", "join", "fail", "recover"]), st.integers(0, 10**6)),
    min_size=1, max_size=50,
)


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(0, 2**16),
    ops=membership,
    queries=st.lists(st.tuples(unit, unit), min_size=1, max_size=6),
)
def test_grid_search_equals_the_scan(topology, seed, ops, queries):
    net = PastryNetwork(b=4, l=8, topology=TOPOLOGIES[topology](), seed=seed)
    net.join()
    for op, pick in ops:
        live, failed = net.node_ids, sorted(net._failed)
        if op == "join":
            net.join()
        elif op == "fail" and len(live) > 1:
            net.fail_node(live[pick % len(live)])
        elif op == "recover" and failed:
            net.recover_node(failed[pick % len(failed)])
        points = [Coordinate(x, y) for x, y in queries]
        points += [n.coord for n in net.nodes()[:2]] + [n.coord for n in net._failed.values()][:2]
        for point in points:
            assert net._nearest_by_proximity(point) is scan(net, point)


def test_exact_ties_go_to_the_first_registered():
    net = PastryNetwork(b=4, l=8, topology=OnePointTorus(), seed=3)
    a, b, c = net.join(), net.join(), net.join()
    query = Coordinate(0.1, 0.9)
    assert net._nearest_by_proximity(query) is a
    net.fail_node(a.node_id)
    assert net._nearest_by_proximity(query) is b
    # The recovered node re-registers after its tie partners.
    net.recover_node(a.node_id)
    assert net._nearest_by_proximity(query) is b is scan(net, query)
    net.fail_node(b.node_id)
    assert net._nearest_by_proximity(query) is c is scan(net, query)


def test_an_id_that_has_coordinates_is_refused():
    net = PastryNetwork(b=4, l=8, seed=4)
    net.join()
    # Made but never registered (a join still in flight): its id is taken.
    orphan = net._make_node(None, register=False)
    with pytest.raises(ValueError):
        net._make_node(orphan.node_id, register=False)


def test_one_query_costs_a_few_dozen_distance_calls():
    topology = CountingTorus()
    net = PastryNetwork(topology=topology, seed=11)
    for _ in range(5000):
        net._make_node(None, register=True)
    rng = random.Random(12)
    worst = 0
    for _ in range(40):
        query = Coordinate(rng.random(), rng.random())
        topology.calls = 0
        found = net._nearest_by_proximity(query)
        worst = max(worst, topology.calls)
        assert found is scan(net, query)
    assert worst <= 48, worst
