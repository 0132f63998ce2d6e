"""Cross-engine differential oracle: SimTransport vs AsyncioTransport.

The wire analyzer proves the RPC surface *can* ship; these tests prove
the shipped system *behaves identically*: one seeded build + insert /
join / lookup workload, run over the in-process simulator and over real
asyncio TCP, must fold to the same outcome checksum with a clean
invariant audit.  The checksum is pinned so either engine drifting —
not just both drifting apart — fails the suite.
"""

from __future__ import annotations

from repro.net.differential import (
    build_cluster,
    graceful_shutdown,
    outcome_checksum,
    run_differential,
    run_serve,
    run_workload,
)

#: sha256 of the canonical observable outcome at (n_nodes=10, n_files=8,
#: seed=7).  Changes only when the storage semantics change; if that is
#: deliberate, re-pin from ``repro serve --differential``.
PINNED_CHECKSUM = "d9142d198f4f0f6966666bd3e371aeca637ca38a31fa2b55b2bc620aa1186864"


class TestDifferential:
    def test_engines_agree_at_pinned_seed(self):
        result = run_differential(n_nodes=10, n_files=8, seed=7)
        assert result["equal"], (
            "engine outcomes diverged:\n"
            f"  sim     = {result['sim']}\n"
            f"  asyncio = {result['asyncio']}"
        )
        assert result["sim"] == PINNED_CHECKSUM
        assert result["asyncio"] == PINNED_CHECKSUM

    def test_audit_clean_on_both_engines(self):
        result = run_differential(n_nodes=10, n_files=8, seed=7)
        assert result["sim_view"]["audit_violations"] == []
        assert result["asyncio_view"]["audit_violations"] == []


class TestAsyncioCluster:
    def test_every_node_listens_on_its_own_tcp_port(self):
        net, transport = build_cluster(6, seed=3, engine="asyncio")
        try:
            ports = transport.serve_all()
            assert set(ports) == {n.node_id for n in net.nodes()}
            assert len(set(ports.values())) == len(ports)
            for node in net.nodes():
                assert transport.probe(node.node_id, node.node_id)
        finally:
            transport.close()

    def test_workload_runs_over_tcp(self):
        net, transport = build_cluster(6, seed=3, engine="asyncio")
        try:
            workload = run_workload(net, n_files=3, seed=4, join_extra=1)
            assert all(r.success for r in workload["inserts"])
            assert all(
                r is not None and r.success for r in workload["lookups"]
            )
            checksum, view = outcome_checksum(net, workload)
            assert view["audit_violations"] == []
            assert len(checksum) == 64
        finally:
            transport.close()


class TestDurableServe:
    """``repro serve --data-dir``: WAL-journaled stores over real TCP,
    a mid-serve kill/restart from the journal, and graceful shutdown."""

    def test_durable_cluster_journals_every_store(self, tmp_path):
        net, transport = build_cluster(
            6, seed=3, engine="asyncio", data_dir=tmp_path
        )
        try:
            run_workload(net, n_files=3, seed=4, join_extra=0)
            for node in net.nodes():
                backend = node.store.backend
                assert backend is not None and backend.durable
                assert backend.state.seq > 0 or not node.store.file_ids()
                # sync_every=1: the journal is never behind the store.
                assert backend.synced_seq == backend.state.seq
        finally:
            graceful_shutdown(transport, net)

    def test_serve_restarts_killed_node_from_wal(self, tmp_path):
        bench = run_serve(
            n_nodes=8, n_files=8, seed=11, workers=2,
            lookup_rounds=1, data_dir=tmp_path,
        )
        durability = bench["durability"]
        assert durability["recovered_all"], (
            "the journal did not reproduce the pre-kill entry set"
        )
        assert durability["entries_restored"] == durability["entries_before_kill"]
        assert durability["records_replayed"] >= durability["entries_restored"]
        assert bench["lookup_failures"] == 0
        assert bench["audit_violations"] == 0
        assert bench["shutdown"]["drained"] is True
        assert bench["shutdown"]["wals_flushed"] > 0

    def test_plain_serve_record_has_no_durable_keys(self):
        bench = run_serve(
            n_nodes=6, n_files=4, seed=11, workers=2, lookup_rounds=1,
        )
        assert "durability" not in bench
        assert "shutdown" not in bench

    def test_plain_serve_observes_no_wire_failures(self):
        """The fault plane is zero-cost when absent: with no plan
        installed, every classified wire-failure counter stays 0."""
        bench = run_serve(
            n_nodes=6, n_files=4, seed=11, workers=2, lookup_rounds=1,
        )
        assert bench["wire"] and not any(bench["wire"].values()), bench["wire"]

    def test_graceful_shutdown_drains_and_flushes(self, tmp_path):
        net, transport = build_cluster(
            6, seed=3, engine="asyncio", data_dir=tmp_path
        )
        run_workload(net, n_files=2, seed=4, join_extra=0)
        info = graceful_shutdown(transport, net)
        assert info["drained"] is True
        assert info["wals_flushed"] == len(net)
        for node in net.nodes():
            assert node.store.backend.closed

    def test_drain_waits_for_inflight_dispatch(self, monkeypatch):
        import threading

        from repro.core.storage import LocalStore

        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            node = next(iter(net.nodes()))
            release = threading.Event()
            entered = threading.Event()
            orig = LocalStore.holds_file

            def holds_file(self, fid):
                entered.set()
                release.wait(5)
                return orig(self, fid)

            monkeypatch.setattr(LocalStore, "holds_file", holds_file)
            worker = threading.Thread(
                target=lambda: transport.send(
                    node.node_id, node.node_id, node.store.holds_file, 1
                ),
            )
            # A dispatch parked inside a handler: drain must block on it.
            worker.start()
            assert entered.wait(5), "dispatch never entered the handler"
            assert transport.drain(timeout=0.1) is False
            release.set()
            assert transport.drain(timeout=5) is True
            worker.join(timeout=5)
        finally:
            transport.close()


class TestBackendSeamOutcome:
    def test_memory_backend_outcome_checksum_unchanged(self, monkeypatch):
        """The committed serve/differential checksums hold with the
        default backend explicitly installed on every store."""
        from repro.core.network import PastNetwork
        from repro.store import MemoryBackend

        orig_init = PastNetwork.__init__

        def init_with_backend(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            self.store_backend_factory = lambda node_id, plan: MemoryBackend()

        monkeypatch.setattr(PastNetwork, "__init__", init_with_backend)
        net, transport = build_cluster(10, seed=7, engine="sim")
        workload = run_workload(net, 8, seed=8)
        checksum, _view = outcome_checksum(net, workload)
        assert checksum == PINNED_CHECKSUM
