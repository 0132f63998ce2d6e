"""Smoke test of the benchmark itself (not part of the tier-1 ``testpaths``).

    python -m pytest bench/tests

Runs every workload at ``--scale 0.02`` on a small overlay and checks the
contract: metric names and units, determinism of the exact-count metrics
and of the outcome checksum across runs and hash seeds, zero network/WAL
layer metrics on the simulator workloads, and a non-zero exit when there is
no program to measure.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from aa import EXACT  # noqa: E402  the metrics that must repeat exactly
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_cache = {}


def run(workload, trace=0, hashseed="0", repeat=0, seed=1201):
    """One small run; memoised so each (workload, mode) executes once."""
    key = (workload, trace, hashseed, repeat, seed)
    if key not in _cache:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--scale", "0.02",
               "--hashseed", hashseed]
        if not workload.startswith("tcp"):
            cmd += ["--nodes", "60"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout
        lines = proc.stdout.strip().splitlines()
        _cache[key] = {
            "result": json.loads(lines[-1]),
            "checksums": re.findall(r"checksum=([0-9a-f]{64})", proc.stdout),
            "phases": re.findall(r"phase (\w+)\s+ops=\s*(\d+) blocks=\s*(\d+)", proc.stdout),
            "wall": time.perf_counter() - start,
        }
    return _cache[key]


def test_all_four_workloads_finish_within_a_minute():
    assert len(WORKLOADS) == 4
    assert sum(run(w)["wall"] for w in WORKLOADS) < 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    result = run(workload)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert len(units) == 16 and "setup_s" in units
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())  # never 0
    assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0
    assert len(run(workload)["phases"]) == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_exactly_the_layer_metrics(workload):
    result = run(workload, trace=1)["result"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert len(units) <= 128
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert result["correct"] is True
    traced, untraced = run(workload, trace=1)["checksums"]
    assert traced == untraced  # the wrappers change no outcome
    if workload.startswith("sim_"):
        wire = [n for n in units if n.startswith(("net.", "store."))]
        assert wire and all(result["metrics"][n]["value"] == 0 for n in wire)
        assert result["metrics"]["client.naive_wire_rtt_us"]["value"] == 0
    else:
        for n in ("net.codec.lookup_self_us", "store.wal.insert_self_us",
                  "net.asyncio_transport.wire_overhead_us_per_rpc",
                  "store.wal.fsyncs_per_insert", "client.naive_wire_rtt_us"):
            assert result["metrics"][n]["value"] > 0, n


def test_names_follow_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_and_checksum_repeat_across_runs_and_hash_seeds(workload):
    first, again, other_hash = run(workload), run(workload, repeat=1), run(workload, hashseed="31337")
    for twin in (again, other_hash):
        assert twin["checksums"] == first["checksums"]
        for name in EXACT:
            assert twin["result"]["metrics"][name] == first["result"]["metrics"][name]
    assert run(workload, seed=7)["checksums"] != first["checksums"]  # the seed is the input


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_fill", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
