"""Node join, failure detection, leaf-set repair, and recovery."""

import random

import pytest

from repro.pastry import PastryNetwork, idspace
from tests.conftest import build_pastry


def assert_leafsets_correct(net: PastryNetwork):
    """Every node's leaf set holds exactly the ring-adjacent live nodes."""
    ids = net.node_ids
    n = len(ids)
    for node in net.nodes():
        half = min(node.l // 2, n - 1)
        idx = ids.index(node.node_id)
        expected_larger = [ids[(idx + i) % n] for i in range(1, half + 1)]
        expected_smaller = [ids[(idx - i) % n] for i in range(1, half + 1)]
        assert node.leafset.larger == expected_larger, node
        assert node.leafset.smaller == expected_smaller, node


class TestJoin:
    def test_sequential_joins_maintain_leafsets(self):
        net = PastryNetwork(b=4, l=8, seed=20)
        for _ in range(50):
            net.join()
        assert_leafsets_correct(net)

    def test_join_duplicate_id_rejected(self):
        net = PastryNetwork(seed=21)
        node = net.join(node_id=777)
        with pytest.raises(ValueError):
            net.join(node_id=777)
        assert node.node_id == 777

    def test_first_node_has_empty_state(self):
        net = PastryNetwork(seed=22)
        node = net.create_first_node()
        assert len(node.leafset) == 0
        assert len(node.routing_table) == 0

    def test_create_first_node_twice_rejected(self):
        net = PastryNetwork(seed=23)
        net.create_first_node()
        with pytest.raises(RuntimeError):
            net.create_first_node()

    def test_joiner_learns_routing_rows_from_path(self):
        net = build_pastry(100, seed=24)
        newcomer = net.join()
        # The newcomer must know at least its leaf set and some table rows.
        assert newcomer.leafset.is_full() or len(net) <= newcomer.l
        assert len(newcomer.routing_table) > 0

    def test_existing_nodes_learn_about_joiner(self):
        net = build_pastry(40, l=8, seed=25)
        newcomer = net.join()
        holders = [
            n for n in net.nodes()
            if newcomer.node_id in n.leafset and n is not newcomer
        ]
        assert len(holders) >= min(8, len(net) - 1)

    def test_neighborhood_set_is_proximity_sorted(self):
        net = build_pastry(60, l=8, seed=26)
        node = net.nodes()[5]
        dists = [node._proximity(n) for n in node.neighborhood]
        assert dists == sorted(dists)


class TestFailure:
    def test_fail_removes_from_registry(self):
        net = build_pastry(30, l=8, seed=30)
        victim = net.nodes()[3].node_id
        net.fail_node(victim)
        assert not net.is_live(victim)
        assert len(net) == 29

    def test_fail_unknown_raises(self):
        net = build_pastry(10, seed=31)
        with pytest.raises(KeyError):
            net.fail_node(123456789)

    def test_leafsets_repaired_after_failure(self):
        net = build_pastry(40, l=8, seed=32)
        rng = random.Random(33)
        ids = list(net.node_ids)
        rng.shuffle(ids)
        for victim in ids[:8]:
            net.fail_node(victim)
        assert_leafsets_correct(net)

    def test_routing_survives_random_failures(self):
        net = build_pastry(80, l=8, seed=34)
        rng = random.Random(35)
        ids = list(net.node_ids)
        rng.shuffle(ids)
        for victim in ids[:20]:
            net.fail_node(victim)
        for _ in range(200):
            key = rng.getrandbits(idspace.ID_BITS)
            result = net.route(net.random_node(rng).node_id, key)
            assert result.terminus == net.numerically_closest_live(key)

    def test_adjacent_failures_within_guarantee(self):
        """Fewer than l/2 adjacent failures must not break delivery."""
        net = build_pastry(60, l=16, seed=36)
        ids = net.node_ids
        for victim in ids[10:13]:  # 3 adjacent < l/2 = 8
            net.fail_node(victim)
        rng = random.Random(37)
        for _ in range(150):
            key = rng.getrandbits(idspace.ID_BITS)
            result = net.route(net.random_node(rng).node_id, key)
            assert result.terminus == net.numerically_closest_live(key)

    def test_lazy_discovery_of_dead_routing_entries(self):
        """A node that never heard about a failure drops the dead entry on use."""
        net = build_pastry(60, l=8, seed=38)
        origin = net.nodes()[0]
        # Fail a node present in origin's routing table but not its leaf set.
        dead = None
        for entry in origin.routing_table.entries():
            if entry not in origin.leafset:
                dead = entry
                break
        if dead is None:
            pytest.skip("no suitable routing entry in this topology")
        # Remove quietly: bypass witness notification to simulate a remote,
        # unobserved crash.
        net._deregister(dead)
        result = net.route(origin.node_id, dead)
        assert result.terminus == net.numerically_closest_live(dead)


class TestRecovery:
    def test_recover_restores_membership(self):
        net = build_pastry(30, l=8, seed=40)
        victim = net.nodes()[7].node_id
        net.fail_node(victim)
        net.recover_node(victim)
        assert net.is_live(victim)
        assert_leafsets_correct(net)

    def test_recover_unknown_raises(self):
        net = build_pastry(10, seed=41)
        with pytest.raises(KeyError):
            net.recover_node(42)

    def test_churn_storm(self):
        """Interleaved joins, failures and recoveries keep the ring sound."""
        net = build_pastry(50, l=8, seed=42)
        rng = random.Random(43)
        failed = []
        for step in range(60):
            action = rng.random()
            if action < 0.4 and len(net) > 20:
                victim = rng.choice(net.node_ids)
                net.fail_node(victim)
                failed.append(victim)
            elif action < 0.6 and failed:
                net.recover_node(failed.pop(rng.randrange(len(failed))))
            else:
                net.join()
        assert_leafsets_correct(net)
        for _ in range(100):
            key = rng.getrandbits(idspace.ID_BITS)
            result = net.route(net.random_node(rng).node_id, key)
            assert result.terminus == net.numerically_closest_live(key)


class TestClusteredRingJoin:
    """Regression: joins into a ring whose live nodes cluster on one arc.

    Heavy failures can leave every survivor on one side of the namespace.
    Nodes near the cluster's edge then trim the far edge from their leaf
    sets (the other side staying empty), so a newcomer seeded only from
    its join terminus was blind to live nodes that belong in its leaf set
    and delivered keys at itself while numerically closer nodes existed.
    The trim-aware ``covers`` and the fixpoint that completes a trimmed,
    short leaf set (``_complete_deficient_leafset``: on a failure repair,
    and before a delivery with no closer node known) fix both halves of
    that failure.  A join seeds the leaf set from its terminus alone: a
    leaf-set exchange at join changed no newcomer's set in these
    schedules or anywhere else in the suite (EXPERIMENTS.md trap 19).
    """

    # Two fail/join schedules distilled from hypothesis counterexamples.
    SCHEDULES = [[124, 0, 0, 182, 2, 1612], [2, 24, 106, 182, 2, 1612]]

    @pytest.mark.parametrize("picks", SCHEDULES)
    def test_join_into_clustered_ring_restores_invariants(self, picks):
        net = PastryNetwork(b=4, l=8, seed=99)
        net.build(12)
        for pick in picks:
            ids = net.node_ids
            net.fail_node(ids[pick % len(ids)])
        net.join()
        net.join()
        net.fail_node(net.node_ids[0])

        # Every node knows the l/2 nearest live nodes on each of its sides.
        live = sorted(net.node_ids)
        for nid in live:
            node = net.node(nid)
            others = [m for m in live if m != nid]
            cw = sorted(
                (m for m in others
                 if idspace.clockwise_distance(nid, m)
                 <= idspace.counterclockwise_distance(nid, m)),
                key=lambda m: idspace.clockwise_distance(nid, m),
            )
            ccw = sorted(
                (m for m in others
                 if idspace.clockwise_distance(nid, m)
                 > idspace.counterclockwise_distance(nid, m)),
                key=lambda m: idspace.counterclockwise_distance(nid, m),
            )
            want = set(cw[: net.l // 2]) | set(ccw[: net.l // 2])
            assert want <= node.leafset.members(), hex(nid)

        # And routing from every node delivers at the closest live node.
        rng = random.Random(7)
        for _ in range(40):
            key = rng.getrandbits(idspace.ID_BITS)
            for origin in net.node_ids:
                result = net.route(origin, key)
                assert result.terminus == net.numerically_closest_live(key)
