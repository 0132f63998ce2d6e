"""End-to-end smoke test for the live (real-TCP) chaos harness.

One full default sweep over localhost: 12 WAL-backed nodes, 10% loss,
injected resets, a partition with heal, and two seeded mid-traffic
kills with WAL-recovered restarts.  It runs through ``repro chaos
--scenario live --bench-out``, whose file must equal the committed
``benchmarks/results/BENCH_live_chaos.json`` byte for byte, so this test
failing means either the harness or the fault schedule drifted.
"""

import json
from pathlib import Path

from repro.cli import main

COMMITTED = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "BENCH_live_chaos.json"
)


class TestLiveSweep:
    def test_default_sweep_passes_every_oracle_and_matches_bench(self, tmp_path, capsys):
        bench_out = tmp_path / "BENCH_live_chaos.json"
        argv = ["chaos", "--scenario", "live", "--seed", "2201", "--json",
                "--bench-out", str(bench_out)]
        assert main(argv) == 0
        run = json.loads(capsys.readouterr().out)
        report = run["report"]
        assert run["failures"] == []
        # Steady (loss-only) rounds carry the paper's >=99% availability
        # bar; degraded rounds (corpse windows, active partition) are
        # judged by recovery instead.
        assert report["steady_succeeded"] >= 0.99 * report["steady_attempted"]
        assert report["lost_files"] == 0
        assert report["recovered_all"] is True
        assert report["audit_ok"] is True
        assert report["kills_applied"] == 2 and report["restarts_applied"] == 2
        # Faults really fired: the sweep is chaos, not a fair-weather run.
        assert report["injected"]["drops"] > 0
        assert report["injected"]["partition_drops"] > 0
        assert report["injected"]["resets"] > 0

        assert bench_out.read_bytes() == COMMITTED.read_bytes()
