"""The Transport seam's one reply channel, pinned on both engines.

Arguments go in by value; everything the caller needs comes back in the
``send`` result or in ``RouteResult.message``.  The proof is dynamic: a
simulator transport that hands every handler a private copy must run the
chaos scenarios to the byte-identical report, and over real TCP a
handler's changes to its arguments never reach the caller.
"""

import copy

import pytest

from repro.core.messages import LookupRequest
from repro.core.storage import LocalStore
from repro.experiments.chaos import (
    run_bitrot_sweep, run_loss_sweep, run_partition_heal,
)
from repro.net import asyncio_transport as at
from repro.net.differential import build_cluster
from repro.netsim.transport import SimTransport
from repro.pastry import idspace
from tests.core.test_integrity import build_loaded, flag_corrupt, holders_of


class CopyingSimTransport(SimTransport):
    """A simulator seam without aliasing: handlers and up-calls only ever
    see deep copies of what the caller passed."""

    __slots__ = ()

    def send(self, origin_id, target_id, call, *args, reliable=False, **kwargs):
        args, kwargs = copy.deepcopy((args, kwargs))
        return super().send(
            origin_id, target_id, call, *args, reliable=reliable, **kwargs
        )

    def route(self, origin_id, key, message=None, collect_distance=False):
        # PastryNetwork.route hands the object it routed (this copy)
        # back as RouteResult.message.
        return super().route(
            origin_id, key, message=copy.deepcopy(message),
            collect_distance=collect_distance,
        )


SCENARIOS = {
    "loss-sweep": run_loss_sweep,
    "partition-heal": lambda seed: [run_partition_heal(seed)],
    "bitrot": run_bitrot_sweep,
}


def copy_across_the_seam(monkeypatch):
    """Swap in the copying transport wherever a SimTransport is built:
    PastNetwork, PastryNetwork, and as_transport (keep-alive, scrubber)."""
    for module in ("repro.core.network", "repro.pastry.network",
                   "repro.netsim.transport"):
        monkeypatch.setattr(f"{module}.SimTransport", CopyingSimTransport)


class TestSimulatorNeedsNoAliasing:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_chaos_report_is_identical_under_a_copying_transport(
        self, scenario, monkeypatch
    ):
        run = SCENARIOS[scenario]
        aliased = [report.to_json() for report in run(seed=7)]
        copy_across_the_seam(monkeypatch)
        copied = [report.to_json() for report in run(seed=7)]
        assert copied == aliased

    def test_hedged_fetch_returns_the_answer_and_the_failed_reads(self, monkeypatch):
        """The chaos scenarios above never hedge past a corrupt copy."""
        copy_across_the_seam(monkeypatch)
        net, fids, node_ids = build_loaded()
        fid = fids[0]
        closest = holders_of(net, fid)[0]
        flag_corrupt(closest, fid)
        sent = LookupRequest(fid, node_ids[0])
        served = net._hedged_fetch(sent, closest.node_id, idspace.routing_key(fid))
        assert (sent.source, sent.integrity_failures) == (None, 0)
        assert served.source is not None and served.responder_id != closest.node_id
        assert (served.integrity_failures, served.extra_hops) == (1, 2)


class TestWireCarriesOnlyTheResult:
    def test_handler_mutating_its_argument_does_not_reach_the_caller(
        self, monkeypatch
    ):
        def holds_file(self, fids):
            fids.append(99)
            return len(fids)

        monkeypatch.setattr(LocalStore, "holds_file", holds_file)
        exchange = at._exchange
        frames = []

        def recording_exchange(sock, blob, expiry):
            payload = exchange(sock, blob, expiry)
            frames.append((blob[4:], payload))
            return payload

        monkeypatch.setattr(at, "_exchange", recording_exchange)
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, target = sorted(net.nodes(), key=lambda n: n.node_id)[:2]
            del frames[:]  # the cluster's own join traffic
            fids = [1, 2]
            sent = transport.send(
                client.node_id, target.node_id, target.store.holds_file, fids
            )
            assert sent == (True, 3)
            assert fids == [1, 2]
            ((request, reply),) = frames
            assert transport.codec.decode(reply) == {"result": 3}
            assert transport.codec.decode(request) == {
                "op": "call", "handler": "LocalStore.holds_file",
                "args": [[1, 2]], "kwargs": {},
            }
        finally:
            transport.close()
