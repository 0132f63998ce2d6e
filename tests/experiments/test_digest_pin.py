"""Pinned schedule-trace digests: the integrity plane's zero-cost bar.

With no StorageFaultPlan installed, every integrity hook on the
store/read hot paths must cost at most an attribute check and zero RNG
draws, so the executed schedules of the pre-existing chaos and explorer
scenarios are **byte-identical** to what they were before the plane
existed.  These constants were recorded on the commit immediately
preceding the integrity plane; if one of these tests fails, a
supposedly-dormant hook perturbed a schedule (or consumed entropy) and
every historical trace digest in CI just silently changed meaning.

The pins are hashseed-independent by construction (CI runs the suite
under PYTHONHASHSEED=0 and 31337).
"""

import hashlib

from repro.core import RetryPolicy
from repro.devtools.explore.scenarios import SCENARIOS
from repro.experiments import chaos
from repro.experiments.chaos import ChaosConfig, run_chaos

CHAOS_LOSS_PIN = "3395691d3167eed2c5c6285feca18fcb5bd118a721105901cc6c563dbb6eafaf"
CHAOS_CRASH_PIN = "357ba7196680e0b3e2678bc96a33361057b42cd4fd136e76031e5ca168065465"
EXPLORE_CHURN_PIN = "caf43c7fdff90e526cf323389a298afe10109d8779a94b937291c67e283330c2"
EXPLORE_CHAOS_PIN = "fb377b6d48579b98d76d18c1c783976a2bdded11432dc49f2442883951e661d4"
# Recorded on the commit preceding the shared fault-episode module
# (repro.core.episode), which every scenario below now runs on.
EXPLORE_JOIN_PIN = "2a76d908e7afffd507e2096560c0464435bb70302d06a318006433bc945ef08b"
EXPLORE_DIVERT_PIN = "a8dbc894126513c9a563f0f0faac2426f6f8f20b53c488ebd9977086617e7091"
EXPLORE_SCRUB_PIN = "2d71371488bd21ccb7bbefa9038a9a30b8a7cba6819e2d811957ad4839daa239"
# sha256 of the exact stdout of ``python -m repro.experiments.chaos
# --scenario <name> --seed <seed> --json``.  The JSON carries every
# report's trace digest and the oracles' ``failures`` list, so one pin
# covers both.
CHAOS_ALL_JSON_PIN = "7891f0cd9a5809a5ade26e2d35e9f2a1c30daa67a2f8e46943996a5134f39f69"
CHAOS_CRASH_RESTART_JSON_PIN = "c4d2974594ce71b83fc90a33765b38b88175c4c1b3ea1e7e43db3a8e8ce0391c"
CHAOS_LIVE_JSON_PIN = "d1f2aecc2b5ccfa2879a5e1428ac211fd5d9490f8f0c6712fbb6075fec31b875"


def chaos_json_sha256(capsys, scenario: str, seed: int) -> str:
    """Run the chaos CLI once; sha256 of its stdout (oracles must pass)."""
    argv = ["--scenario", scenario, "--seed", str(seed), "--json"]
    assert chaos.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()


class TestFaultFreeDigestsAreByteIdentical:
    def test_chaos_loss_scenario_pin(self):
        report = run_chaos(
            ChaosConfig(seed=3, n_nodes=14, n_files=10, k=3, duration=8.0,
                        lookups_per_tick=4, loss=0.2,
                        policy=RetryPolicy(max_attempts=4)),
            scenario="pin",
        )
        assert report.digest == CHAOS_LOSS_PIN

    def test_chaos_crash_scenario_pin(self):
        report = run_chaos(
            ChaosConfig(seed=3, n_nodes=14, n_files=10, k=3, duration=12.0,
                        lookups_per_tick=4, crash_count=2,
                        crash_interarrival=3.0),
            scenario="pin-crash",
        )
        assert report.digest == CHAOS_CRASH_PIN

    def test_explorer_churn_scenario_pin(self):
        assert SCENARIOS["churn"](7).trace.digest() == EXPLORE_CHURN_PIN

    def test_explorer_chaos_scenario_pin(self):
        assert SCENARIOS["chaos"](7).trace.digest() == EXPLORE_CHAOS_PIN

    def test_explorer_join_divert_scrub_scenario_pins(self):
        assert SCENARIOS["join"](7).trace.digest() == EXPLORE_JOIN_PIN
        assert SCENARIOS["divert"](7).trace.digest() == EXPLORE_DIVERT_PIN
        assert SCENARIOS["scrub"](7).trace.digest() == EXPLORE_SCRUB_PIN

    def test_chaos_all_combined_digest_pin(self, capsys):
        """Every sim sweep ``--scenario all`` runs, in its order, with
        each sweep's acceptance oracle."""
        assert chaos_json_sha256(capsys, "all", 7) == CHAOS_ALL_JSON_PIN

    def test_chaos_crash_restart_json_pin(self, capsys):
        assert (chaos_json_sha256(capsys, "crash-restart", 7)
                == CHAOS_CRASH_RESTART_JSON_PIN)

    def test_chaos_live_json_pin(self, capsys):
        assert chaos_json_sha256(capsys, "live", 2201) == CHAOS_LIVE_JSON_PIN


class TestBackendSeamIsPureRefactor:
    """Installing the default backend on every store must not move a
    single byte of any pinned schedule: the seam's hook sites are
    attribute checks only, and :class:`MemoryBackend` observes without
    acting.  If one of these fails while the bare-store pins above
    still pass, a ``note_*`` hook grew a side effect."""

    def _force_memory_backend(self, monkeypatch):
        from repro.core.network import PastNetwork
        from repro.store import MemoryBackend

        orig_init = PastNetwork.__init__

        def init_with_backend(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            self.store_backend_factory = lambda node_id, plan: MemoryBackend()

        monkeypatch.setattr(PastNetwork, "__init__", init_with_backend)

    def test_chaos_loss_pin_with_memory_backend(self, monkeypatch):
        self._force_memory_backend(monkeypatch)
        report = run_chaos(
            ChaosConfig(seed=3, n_nodes=14, n_files=10, k=3, duration=8.0,
                        lookups_per_tick=4, loss=0.2,
                        policy=RetryPolicy(max_attempts=4)),
            scenario="pin",
        )
        assert report.digest == CHAOS_LOSS_PIN

    def test_chaos_crash_pin_with_memory_backend(self, monkeypatch):
        self._force_memory_backend(monkeypatch)
        report = run_chaos(
            ChaosConfig(seed=3, n_nodes=14, n_files=10, k=3, duration=12.0,
                        lookups_per_tick=4, crash_count=2,
                        crash_interarrival=3.0),
            scenario="pin-crash",
        )
        assert report.digest == CHAOS_CRASH_PIN

    def test_explorer_pins_with_memory_backend(self, monkeypatch):
        self._force_memory_backend(monkeypatch)
        assert SCENARIOS["churn"](7).trace.digest() == EXPLORE_CHURN_PIN
        assert SCENARIOS["chaos"](7).trace.digest() == EXPLORE_CHAOS_PIN
