"""Client-side resilience: RetryPolicy, resilient lookups, hedging."""

import random

import pytest

from repro.core import NO_RETRY_POLICY, RetryPolicy
from repro.core.messages import LookupRequest
from repro.netsim.faults import FaultPlan
from repro.pastry import idspace
from tests.conftest import build_past


def build_loaded(n=20, n_files=15, seed=70, k=3):
    net = build_past(n, k=k, l=8, seed=seed, cache_policy="none")
    owner = net.create_client("res-owner")
    rng = random.Random(seed)
    node_ids = [node.node_id for node in net.nodes()]
    fids = []
    for i in range(n_files):
        res = net.insert(f"res{i}", owner, 20_000,
                         node_ids[rng.randrange(len(node_ids))])
        assert res.success
        fids.append(res.file_id)
    return net, fids, node_ids


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_is_exponential_and_jittered(self):
        policy = RetryPolicy(base_backoff=0.5, backoff_factor=2.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff(1, rng) == pytest.approx(0.5)
        assert policy.backoff(2, rng) == pytest.approx(1.0)
        assert policy.backoff(3, rng) == pytest.approx(2.0)
        jittered = RetryPolicy(base_backoff=0.5, backoff_factor=2.0, jitter=0.5)
        delays = [jittered.backoff(1, random.Random(s)) for s in range(5)]
        assert all(0.5 <= d <= 0.75 for d in delays)
        assert len(set(delays)) > 1

    def test_backoff_replays_with_seeded_rng(self):
        policy = RetryPolicy()
        a = [policy.backoff(i, random.Random(9)) for i in (1, 2, 3)]
        b = [policy.backoff(i, random.Random(9)) for i in (1, 2, 3)]
        assert a == b

    def test_no_retry_policy_is_single_shot(self):
        assert NO_RETRY_POLICY.max_attempts == 1
        assert not NO_RETRY_POLICY.hedge


class TestResilientLookup:
    def test_clean_network_single_attempt(self):
        net, fids, node_ids = build_loaded()
        result = net.lookup(fids[0], node_ids[0], policy=RetryPolicy())
        assert result.success and result.attempts == 1 and not result.hedged

    def test_total_loss_exhausts_attempts(self):
        net, fids, node_ids = build_loaded()
        net.pastry.fault_plan = FaultPlan(seed=1, loss=1.0)
        policy = RetryPolicy(max_attempts=4)
        # Origin must not itself hold the file, or no hop is needed.
        key = idspace.routing_key(fids[0])
        holders = set(net.pastry.k_closest_live(key, net.config.k))
        origin = next(n for n in node_ids if n not in holders)
        result = net.lookup(fids[0], origin, policy=policy)
        assert not result.success
        assert result.attempts == 4
        assert result.elapsed > 0.0  # backoffs + timeouts were charged

    def test_retry_beats_baseline_under_partial_loss(self):
        def run(policy):
            net, fids, node_ids = build_loaded(seed=71)
            net.pastry.fault_plan = FaultPlan(seed=5, loss=0.3)
            rng = random.Random(11)
            ok = 0
            for _ in range(40):
                fid = fids[rng.randrange(len(fids))]
                origin = node_ids[rng.randrange(len(node_ids))]
                if net.lookup(fid, origin, policy=policy).success:
                    ok += 1
            return ok

        baseline = run(None)
        resilient = run(RetryPolicy(max_attempts=6))
        assert baseline < 40  # the loss rate really bites
        assert resilient > baseline
        assert resilient >= 39

    def test_policy_none_is_byte_identical_to_legacy_path(self):
        a_net, fids, node_ids = build_loaded(seed=72)
        b_net, _, _ = build_loaded(seed=72)
        a = a_net.lookup(fids[3], node_ids[2])
        b = b_net.lookup(fids[3], node_ids[2], policy=None)
        assert (a.success, a.hops, a.source, a.responder_id) == (
            b.success, b.hops, b.source, b.responder_id
        )

    def test_hedged_fetch_asks_replica_holders_directly(self):
        net, fids, node_ids = build_loaded()
        fid = fids[0]
        key = idspace.routing_key(fid)
        # Any terminus works: its leaf set covers the replica set.
        terminus = net.past_node_or_none(net.pastry.k_closest_live(key, 1)[0])
        request = LookupRequest(fid, node_ids[0])
        assert net._hedged_fetch(request, terminus.node_id, key)
        assert request.source is not None
        assert request.extra_hops >= 1

    def test_hedged_fetch_fails_when_rpcs_all_lost(self):
        net, fids, node_ids = build_loaded()
        fid = fids[0]
        key = idspace.routing_key(fid)
        net.pastry.fault_plan = FaultPlan(seed=2, loss=1.0)
        terminus = net.past_node_or_none(net.pastry.k_closest_live(key, 1)[0])
        request = LookupRequest(fid, node_ids[0])
        unserved = net._hedged_fetch(request, terminus.node_id, key)
        assert unserved.source is None
        assert unserved.extra_hops == len(terminus.replica_set_for(key))


class TestResilientInsert:
    def test_insert_reroute_beats_baseline_under_loss(self):
        """A policy re-issues *lost* insert routes instead of burning a
        §3.4 salt attempt on them; replica-set RPC loss (which the
        coordinator does not retry) still caps the win."""
        def run(policy):
            net = build_past(16, k=3, l=8, seed=73, cache_policy="none")
            owner = net.create_client("ins-owner")
            node_ids = [node.node_id for node in net.nodes()]
            net.pastry.fault_plan = FaultPlan(seed=4, loss=0.2)
            return sum(
                net.insert(f"i{i}", owner, 10_000,
                           node_ids[i % len(node_ids)],
                           policy=policy).success
                for i in range(12)
            )

        baseline = run(None)
        resilient = run(RetryPolicy(max_attempts=8))
        assert baseline < 12
        assert resilient > baseline
        assert resilient >= 8

    def test_insert_total_loss_fails_cleanly(self):
        net = build_past(16, k=3, l=8, seed=74, cache_policy="none")
        owner = net.create_client("ins-owner")
        origin = sorted(net.pastry.node_ids)[0]
        net.pastry.fault_plan = FaultPlan(seed=4, loss=1.0)
        result = net.insert("doomed", owner, 10_000, origin,
                            policy=RetryPolicy(max_attempts=3))
        assert not result.success
        # The owner's quota was rolled back: a healed retry succeeds.
        net.pastry.fault_plan = None
        assert net.insert("doomed", owner, 10_000, origin,
                          policy=RetryPolicy(max_attempts=3)).success
