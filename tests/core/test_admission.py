"""Tests for node admission control (§3.2)."""

import random

import pytest

from repro.core import AdmissionError, PastConfig, PastNetwork
from repro.pastry import PastryNetwork, idspace
from tests.conftest import build_past


class TestAdmission:
    def test_first_node_unconditional(self):
        net = PastNetwork(PastConfig(seed=100))
        nodes = net.add_node(123)
        assert len(nodes) == 1

    def test_comparable_capacity_admitted(self):
        net = build_past(n=10, capacity=1_000_000, seed=101)
        nodes = net.add_node(2_000_000)
        assert len(nodes) == 1
        assert len(net) == 11

    def test_tiny_node_rejected(self):
        """A node far below the leaf-set average is rejected."""
        net = build_past(n=10, capacity=1_000_000, seed=102)
        with pytest.raises(AdmissionError):
            net.add_node(1_000)  # 1000x below average

    def test_oversized_node_splits(self):
        """A node far above the average joins under multiple nodeIds."""
        net = build_past(n=10, capacity=1_000_000, seed=103)
        nodes = net.add_node(500_000_000)
        assert len(nodes) > 1
        assert sum(n.store.capacity for n in nodes) == 500_000_000
        ids = {n.node_id for n in nodes}
        assert len(ids) == len(nodes)

    def test_oversized_without_split_rejected(self):
        net = build_past(n=10, capacity=1_000_000, seed=104)
        with pytest.raises(AdmissionError):
            net.add_node(500_000_000, allow_split=False)

    def test_split_parts_individually_admissible(self):
        net = build_past(n=10, capacity=1_000_000, seed=105)
        nodes = net.add_node(300_000_000)
        ratio = net.config.admission_ratio
        for node in nodes:
            assert node.store.capacity <= 1_000_000 * ratio * 1.5

    def test_negative_capacity_rejected(self):
        net = PastNetwork(PastConfig(seed=106))
        with pytest.raises(ValueError):
            net.add_node(-1)

    def test_admission_ratio_configurable(self):
        net = build_past(n=10, capacity=1_000_000, seed=107, admission_ratio=2.0)
        with pytest.raises(AdmissionError):
            net.add_node(400_000)  # below half the average

    def test_capacity_counter_tracks_adds(self):
        net = build_past(n=5, capacity=1_000_000, seed=108)
        before = net.total_capacity
        net.add_node(1_500_000)
        assert net.total_capacity == before + 1_500_000


def overlay_state(pastry):
    """Every live node's leaf set, routing table and neighborhood set."""
    return {
        node.node_id: (
            node.leafset.sorted_members(),
            [node.routing_table.row(r) for r in range(node.routing_table.rows)],
            node.neighborhood,
        )
        for node in map(pastry.node, pastry.node_ids)
    }


@pytest.mark.parametrize("l", [8, 16])
def test_past_admission_runs_the_one_pastry_join(l):
    """A PAST node joins through Pastry's own join: the same seed and the
    same ids leave the same routing state, whichever entry point built it."""
    rng = random.Random(41)
    ids = [rng.getrandbits(idspace.ID_BITS) for _ in range(60)]
    pastry = PastryNetwork(b=4, l=l, seed=41)
    for node_id in ids:
        pastry.join(node_id)
    past = PastNetwork(PastConfig(b=4, l=l, seed=41))
    for node_id in ids:
        past.add_node(1_000_000, node_id=node_id)
    assert overlay_state(past.pastry) == overlay_state(pastry)
