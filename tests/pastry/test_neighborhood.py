"""The neighbourhood set: proximity-ordered, ties in arrival order."""

from hypothesis import given, settings, strategies as st

from repro.pastry.node import PastryNode


class TableNetwork:
    """Stands in for PastryNetwork: proximity read from a table."""

    identity_verifier = None

    def __init__(self, distances):
        self.distances = distances

    def distance(self, a, b):
        return self.distances[b]


def make_node(distances, l=4):
    return PastryNode(1, TableNetwork(distances), coord=None, l=l)


def test_equal_distances_keep_arrival_order():
    node = make_node({10: 5.0, 11: 5.0, 12: 5.0, 13: 1.0, 14: 5.0})
    for node_id in (11, 10, 13, 12):
        node.consider_neighbor(node_id)
    assert node.neighborhood == [13, 11, 10, 12]
    # Full: a newcomer tying with the farthest kept member is behind it
    # in arrival order, so it is the one cut.
    node.consider_neighbor(14)
    assert node.neighborhood == [13, 11, 10, 12]


def test_nearer_offer_evicts_the_farthest_member():
    node = make_node({10: 1.0, 11: 2.0, 12: 3.0, 13: 4.0, 14: 2.5})
    for node_id in (13, 12, 11, 10, 14):
        node.consider_neighbor(node_id)
    assert node.neighborhood == [10, 11, 14, 12]
    node.forget(11)
    assert node.neighborhood == [10, 14, 12]
    node.consider_neighbor(13)
    assert node.neighborhood == [10, 14, 12, 13]


class ReferenceNeighborhood:
    """The set as a stable sort defines it: append, sort by distance,
    truncate to ``l``, and ``list.remove`` on forget."""

    def __init__(self, distances, l):
        self.distances, self.l = distances, l
        self.members = []

    def consider(self, node_id):
        if node_id in self.members:
            return
        self.members.append(node_id)
        self.members.sort(key=self.distances.__getitem__)
        del self.members[self.l:]

    def forget(self, node_id):
        if node_id in self.members:
            self.members.remove(node_id)


@st.composite
def neighborhood_scenarios(draw):
    """(l, distances, ops): few distinct distances, so most offers tie."""
    l = draw(st.sampled_from([2, 4, 8]))
    ids = list(range(10, 10 + draw(st.integers(min_value=1, max_value=3 * l))))
    levels = st.sampled_from([0.5, 1.0, 1.0, 2.0, 2.0, 3.0])
    distances = {node_id: draw(levels) for node_id in ids}
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["offer", "offer", "offer", "forget"]), st.sampled_from(ids)),
        max_size=60,
    ))
    return l, distances, ops


@settings(max_examples=300, deadline=None)
@given(neighborhood_scenarios())
def test_neighborhood_matches_the_stable_sort_after_every_step(scenario):
    l, distances, ops = scenario
    node, ref = make_node(distances, l=l), ReferenceNeighborhood(distances, l)
    for op, node_id in ops:
        if op == "offer":
            node.consider_neighbor(node_id)
            ref.consider(node_id)
        else:
            node.forget(node_id)
            ref.forget(node_id)
        assert node.neighborhood == ref.members


class CountingNetwork(TableNetwork):
    def __init__(self, distances):
        super().__init__(distances)
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return super().distance(a, b)


def test_an_offer_to_a_full_set_measures_one_distance():
    net = CountingNetwork({10: 1.0, 11: 2.0, 12: 3.0, 13: 4.0, 14: 4.0, 15: 9.0, 16: 5.0})
    node = PastryNode(1, net, coord=None, l=4)
    for node_id in (12, 13, 16, 11):
        node.consider_neighbor(node_id)
    assert node.neighborhood == [11, 12, 13, 16]
    # Farther, nearer (evicts 16), tied with the farthest, already a member.
    for node_id, calls in ((15, 1), (10, 1), (14, 1), (12, 0)):
        net.calls = 0
        node.consider_neighbor(node_id)
        assert net.calls == calls
    assert node.neighborhood == [10, 11, 12, 13]
