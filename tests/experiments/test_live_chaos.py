"""End-to-end smoke test for the live (real-TCP) chaos harness.

One full default sweep over localhost: 12 WAL-backed nodes, 10% loss,
injected resets, a partition with heal, and two seeded mid-traffic
kills with WAL-recovered restarts.  The committed bench checksum in
``benchmarks/results/BENCH_live_chaos.json`` pins the same payload CI
regenerates, so this test failing means either the harness or the fault
schedule drifted.
"""

import json
from pathlib import Path

from repro.experiments.live_chaos import live_chaos_bench, run_live_sweep

COMMITTED = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "BENCH_live_chaos.json"
)


class TestLiveSweep:
    def test_default_sweep_passes_every_oracle_and_matches_bench(self):
        report = run_live_sweep()
        assert report.oracle_failures() == []
        # Steady (loss-only) rounds carry the paper's >=99% availability
        # bar; degraded rounds (corpse windows, active partition) are
        # judged by recovery instead.
        assert report.steady_success >= 0.99
        assert report.lost_files == 0
        assert report.recovered_all is True
        assert report.audit_ok is True
        assert report.kills_applied == 2 and report.restarts_applied == 2
        assert report.parity["ok"] is True
        # Faults really fired: the sweep is chaos, not a fair-weather run.
        assert report.injected["drops"] > 0
        assert report.injected["partition_drops"] > 0
        assert report.injected["resets"] > 0

        bench = live_chaos_bench(report)
        committed = json.loads(COMMITTED.read_text())
        assert bench["checksum"] == committed["checksum"]
        assert bench == committed
