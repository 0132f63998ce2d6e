"""A restart reopens a failed node's store through the deployment's own
backend factory, so the reborn journal keeps the birth configuration."""

from __future__ import annotations

import pytest

from repro.core.network import PastNetwork
from repro.experiments import chaos
from repro.net.differential import build_cluster
from repro.netsim.faults import CRASH_TORN_FSYNC


def birth_config(backend):
    return (
        backend.directory,
        backend.sync_every,
        backend.track_digests,
        backend.vfs.fault_plan,
    )


def test_build_cluster_node_reopens_with_its_birth_config(tmp_path):
    net, _ = build_cluster(6, seed=3, data_dir=tmp_path)
    victim = net.pastry.node_ids[0]
    born = net.past_node(victim).store.backend
    born.crash()
    net.fail_node(victim)
    with pytest.raises(RuntimeError):  # only a failed node reopens
        net.reopen_store(net.pastry.node_ids[0])

    reborn = net.reopen_store(victim)
    try:
        assert reborn is not born and not reborn.closed
        assert birth_config(reborn) == birth_config(born)
        assert birth_config(reborn)[1:] == (1, False, None)
    finally:
        reborn.close()
        for node in net.nodes():
            node.store.backend.close()


def test_crash_restart_sweep_node_reopens_with_its_birth_config(monkeypatch):
    pairs = []
    reopen = PastNetwork.reopen_store

    def spy(net, node_id):
        born = birth_config(net._failed_past[node_id].store.backend)
        reborn = reopen(net, node_id)
        pairs.append((born, birth_config(reborn)))
        return reborn

    monkeypatch.setattr(PastNetwork, "reopen_store", spy)
    report = chaos._run_crash_restart_phase(7, CRASH_TORN_FSYNC)
    assert not report.oracle_failures()
    assert len(pairs) == len(report.cells) == 2
    for born, reborn in pairs:
        assert reborn == born
        assert born[1:3] == (4, True) and born[3] is not None
