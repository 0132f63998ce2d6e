"""The chaos harness: reproducibility, availability and §3.5 durability."""

import json
from pathlib import Path

import pytest

from repro.core import RetryPolicy
from repro.experiments.chaos import (
    ChaosConfig,
    durability_bench,
    main,
    run_chaos,
    run_crash_restart_sweep,
)


def small(seed=3, **kw):
    defaults = dict(
        seed=seed, n_nodes=14, n_files=10, k=3, duration=8.0,
        lookups_per_tick=4,
    )
    defaults.update(kw)
    return ChaosConfig(**defaults)


class TestReproducibility:
    def test_same_config_same_report(self):
        cfg = small(loss=0.2, policy=RetryPolicy(max_attempts=4))
        a = run_chaos(cfg, scenario="repro")
        b = run_chaos(cfg, scenario="repro")
        assert a.digest == b.digest
        assert a.to_json() == b.to_json()

    def test_different_seeds_different_runs(self):
        # With no crash schedule the *event* timeline is seed-independent
        # (loss changes message fates, not what gets scheduled), so
        # include a storm: its seeded interarrivals reshape the schedule.
        a = run_chaos(small(seed=3, loss=0.2, crash_count=2,
                            crash_interarrival=3.0, duration=12.0),
                      scenario="s")
        b = run_chaos(small(seed=4, loss=0.2, crash_count=2,
                            crash_interarrival=3.0, duration=12.0),
                      scenario="s")
        assert a.digest != b.digest

    def test_loss_changes_outcomes_not_schedule(self):
        lossy = run_chaos(small(seed=3, loss=0.25), scenario="s")
        clean = run_chaos(small(seed=3, loss=0.0), scenario="s")
        assert lossy.digest == clean.digest  # same event timeline
        assert lossy.messages_lost > 0 and clean.messages_lost == 0
        assert lossy.to_json() != clean.to_json()

    def test_report_json_round_trips(self):
        report = run_chaos(small(loss=0.1), scenario="json")
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "json"
        assert payload["lookup_success"] == round(report.lookup_success, 6)
        assert payload["digest"] == report.digest


class TestAvailability:
    def test_retry_beats_baseline_at_ten_percent_loss(self):
        base = run_chaos(small(loss=0.1, policy=None), scenario="base")
        res = run_chaos(
            small(loss=0.1, policy=RetryPolicy(max_attempts=6)),
            scenario="resilient",
        )
        assert base.lookups_attempted == res.lookups_attempted
        assert base.lookup_success < 1.0
        assert res.lookup_success >= 0.99
        assert res.mean_attempts > 1.0

    def test_clean_run_audits_clean(self):
        report = run_chaos(small(loss=0.0), scenario="clean")
        assert report.audit_ok, report.violations
        assert report.lookup_success == 1.0
        assert report.lost_files == 0
        assert report.messages_lost == 0


class TestDurability:
    def test_spaced_crashes_lose_nothing(self):
        """Crash interarrival >> recovery period: re-replication outruns
        the storm (§3.5's safe side)."""
        report = run_chaos(
            small(
                loss=0.05, crash_count=2, crash_interarrival=8.0,
                restart_after=4.0, wipe_disks=True, duration=20.0,
                policy=RetryPolicy(max_attempts=6),
            ),
            scenario="spaced",
        )
        assert report.crashes_applied == 2
        assert report.lost_files == 0
        assert report.audit_ok, report.violations

    def test_overlapping_replica_set_crash_loses_the_file(self):
        """All k holders die within one detection window, disks wiped:
        §3.5 says that file is gone — and the oracle must name it."""
        report = run_chaos(
            small(
                n_nodes=16, crash_target_replica_set=True,
                overlap_spacing=0.1, restart_after=6.0, duration=12.0,
            ),
            scenario="overlap",
        )
        assert report.target_file_id is not None
        assert report.target_file_id in report.lost_file_ids
        assert report.lost_files >= 1
        # Losing a file is an availability event, not a corruption: the
        # post-heal audit is still clean.
        assert report.audit_ok, report.violations


class TestIntegrity:
    """Storage-fault plane: bit rot vs. the anti-entropy scrubber."""

    def bitrot(self, scrub, seed=3, rate=6e-5, **kw):
        defaults = dict(
            seed=seed, n_nodes=16, n_files=12, k=4, file_size=2000,
            bitrot_rate=rate, lookups_per_tick=0, duration=20.0,
            scrub_interval=scrub,
            scrub_jitter=scrub / 6 if scrub else 0.0,
        )
        defaults.update(kw)
        return ChaosConfig(**defaults)

    def test_bitrot_without_scrub_destroys_file_contents(self):
        """No lookups, no scrubber: rot accumulates until every copy of
        some file is damaged — unrecoverable, reported by id."""
        report = run_chaos(self.bitrot(0.0), scenario="rot-off")
        assert report.bitrot_corruptions > 0
        assert report.corrupt_files > 0
        assert report.unrecoverable_files > 0
        assert report.unrecoverable_file_ids
        assert report.scrub_rounds == 0 and report.read_repairs == 0

    def test_scrubber_recovers_one_hundred_percent(self):
        report = run_chaos(self.bitrot(0.5), scenario="rot-on")
        assert report.bitrot_corruptions > 0
        assert report.scrub_rounds > 0
        assert report.read_repairs > 0
        assert report.corrupt_files == 0
        assert report.unrecoverable_files == 0
        assert report.audit_ok, report.violations
        # The oracle names every corrupted-then-healed file.
        assert report.healed_file_ids

    def test_bitrot_report_is_reproducible(self):
        a = run_chaos(self.bitrot(0.5), scenario="rot")
        b = run_chaos(self.bitrot(0.5), scenario="rot")
        assert a.to_json() == b.to_json()


class TestCrashRestartSweep:
    def test_sweep_matches_the_committed_durability_bench(self):
        """What CI's durability step regenerates and diffs, in tier 1."""
        committed = json.loads(
            (Path(__file__).resolve().parents[2] / "benchmarks" / "results"
             / "BENCH_durability.json").read_text()
        )
        reports = run_crash_restart_sweep(seed=1201)
        assert [r.oracle_failures() for r in reports] == [[], [], []]
        assert durability_bench(reports, 1201) == committed


class TestCli:
    def test_bench_out_is_refused_where_no_bench_is_written(self, capsys):
        """Only crash-restart and live produce a BENCH payload."""
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "partition", "--bench-out", "/dev/null"])
        assert exc.value.code == 2
        assert "--bench-out" in capsys.readouterr().err
