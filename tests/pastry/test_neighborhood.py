"""The neighbourhood set: proximity-ordered, ties in arrival order."""

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
