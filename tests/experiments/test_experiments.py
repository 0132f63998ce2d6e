"""Miniature versions of the §5 experiments: the published *shapes* must
hold even at test scale (tens of nodes, thousands of files)."""

import pytest

from repro.experiments import StorageRunConfig, run_storage_trace
from repro.experiments import caching, storage

# Tiny-scale parameters shared by the tests (seconds, not minutes).
TINY = dict(n_nodes=40, capacity_scale=0.1)


@pytest.fixture(scope="module")
def standard_run():
    return run_storage_trace(StorageRunConfig(seed=1, **TINY))


@pytest.fixture(scope="module")
def baseline_run():
    return storage.run_baseline_no_diversion(seed=1, **TINY)


class TestBaseline:
    def test_no_diversion_fails_heavily(self, baseline_run, standard_run):
        """§5.1: without diversion most inserts fail at low utilization."""
        assert baseline_run.fail_pct > 25.0
        assert baseline_run.fail_pct > 5 * standard_run.fail_pct

    def test_no_diversion_strands_capacity(self, baseline_run, standard_run):
        """Paper: 60.8% utilization without diversion vs >94% with."""
        assert baseline_run.utilization < 0.75
        assert standard_run.utilization > 0.80
        assert standard_run.utilization > baseline_run.utilization + 0.15

    def test_no_diversion_really_disabled(self, baseline_run):
        assert baseline_run.file_diversion_ratio == 0.0
        assert baseline_run.replica_diversion_ratio == 0.0


class TestStandardRun:
    def test_high_success_and_utilization(self, standard_run):
        assert standard_run.success_pct > 85.0
        assert standard_run.utilization > 0.80

    def test_replica_diversion_moderate(self, standard_run):
        """Paper: ~16% of replicas diverted at end of the d1/l=32 run."""
        assert 0.01 < standard_run.replica_diversion_ratio < 0.40

    def test_row_shape(self, standard_run):
        row = standard_run.table_row()
        assert row["succeed_pct"] + row["fail_pct"] == pytest.approx(100.0)
        assert 0 <= row["util_pct"] <= 100


class TestLeafSetEffect:
    def test_larger_leafset_helps(self):
        """Table 2: l=32 achieves higher success than l=16."""
        sweep = storage.run_table2(
            seed=2, dists=["d1"], leaf_sizes=[8, 32], **TINY
        )
        by_l = {row["l"]: row for row in sweep.rows}
        assert by_l[32]["succeed_pct"] >= by_l[8]["succeed_pct"]


class TestThresholdSweeps:
    def test_tpri_tradeoff(self):
        """Table 3: larger t_pri -> more failures but higher utilization."""
        sweep = storage.run_table3(seed=3, t_pris=[0.5, 0.05], **TINY)
        big, small = sweep.rows
        assert big["t_pri"] == 0.5 and small["t_pri"] == 0.05
        assert big["fail_pct"] > small["fail_pct"]
        assert big["util_pct"] >= small["util_pct"] - 1.0

    def test_tdiv_tradeoff(self):
        """Table 4: larger t_div -> higher utilization, more failures."""
        sweep = storage.run_table4(seed=4, t_divs=[0.1, 0.005], **TINY)
        big, small = sweep.rows
        assert big["util_pct"] > small["util_pct"]

    def test_figure2_curves_nondecreasing(self):
        sweep = storage.run_table3(seed=5, t_pris=[0.1], **TINY)
        curves = storage.failure_curves(sweep, "t_pri")
        (curve,) = curves.values()
        utils = [u for u, _ in curve]
        assert utils == sorted(utils)


class TestDiversionFigures:
    def test_figure4_file_diversion_negligible_at_low_util(self):
        curves = storage.run_standard(seed=6, **TINY).stats.file_diversion_curves()
        low = [c for c in curves if c[0] < 0.5]
        if low:
            final_low = low[-1]
            assert final_low[1] + final_low[2] + final_low[3] < 0.02

    def test_figure5_replica_diversion_grows_with_util(self):
        curve = storage.run_standard(seed=7, **TINY).stats.replica_diversion_curve()
        early = [r for u, r in curve if u < 0.4]
        late = [r for u, r in curve if u > 0.85]
        assert late and (not early or late[-1] >= max(early))

    def test_figure6_failures_biased_to_large_files(self):
        scatter = storage.run_standard(seed=8, **TINY).stats.failed_insert_sizes()
        assert scatter, "expected some failures at saturation"
        mean_size = 10_517
        failed_sizes = [s for _, s in scatter]
        big = sum(1 for s in failed_sizes if s > mean_size)
        assert big / len(failed_sizes) > 0.5

    def test_figure7_filesystem_workload_runs(self):
        run, scatter, curve = storage.run_figure7(seed=9, n_nodes=40, capacity_scale=0.05)
        assert run.config.workload == "fs"
        # The heavy fs tail is byte-dominant at test scale, so utilization
        # saturates lower than the web runs; the shape checks are what
        # matter: failures exist and skew large.
        assert run.utilization > 0.5
        assert curve
        if scatter:
            failed = [s for _, s in scatter]
            assert sorted(failed)[len(failed) // 2] > 4_578  # median failed > fs median


class TestCaching:
    @pytest.fixture(scope="class")
    def fig8(self):
        return caching.run_figure8(n_nodes=40, capacity_scale=0.08, seed=10)

    def test_policies_present(self, fig8):
        assert set(fig8) == {"gds", "lru", "none"}

    def test_no_cache_no_hits(self, fig8):
        assert fig8["none"].hit_ratio == 0.0

    def test_caching_reduces_hops(self, fig8):
        assert fig8["gds"].mean_hops < fig8["none"].mean_hops
        assert fig8["lru"].mean_hops < fig8["none"].mean_hops

    def test_gds_at_least_as_good_as_lru(self, fig8):
        assert fig8["gds"].hit_ratio >= fig8["lru"].hit_ratio - 0.03

    def test_hit_rate_declines_past_peak(self, fig8):
        """Figure 8: hit rate falls as utilization squeezes cache space."""
        curve = [(u, h) for u, h, _, n in fig8["gds"].curve if n > 100]
        assert curve
        peak_u, peak = max(curve, key=lambda p: p[1])
        tail = [h for u, h in curve if u > max(peak_u, 0.85)]
        if tail:
            assert min(tail) < peak

    def test_lookups_succeed(self, fig8):
        for res in fig8.values():
            assert res.lookup_success_ratio > 0.95


class TestHarness:
    def test_n_files_override(self):
        cfg = StorageRunConfig(n_nodes=20, capacity_scale=0.05, n_files=100, seed=11)
        res = run_storage_trace(cfg)
        assert res.n_files == 100

    def test_keep_network(self):
        cfg = StorageRunConfig(n_nodes=20, capacity_scale=0.05, n_files=50, seed=12)
        res = run_storage_trace(cfg, keep_network=True)
        assert res.network is not None
        assert len(res.network) == 20

    def test_unknown_workload_rejected(self):
        from repro.experiments.harness import build_network, make_workload

        cfg = StorageRunConfig(n_nodes=5, workload="cassandra", seed=13)
        net = build_network(cfg)
        with pytest.raises(ValueError):
            make_workload(cfg, net)

    def test_deterministic_runs(self):
        cfg = StorageRunConfig(n_nodes=20, capacity_scale=0.05, n_files=200, seed=14)
        a = run_storage_trace(cfg)
        b = run_storage_trace(cfg)
        assert a.succeeded == b.succeeded
        assert a.utilization == b.utilization
