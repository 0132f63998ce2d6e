"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import PastConfig, PastNetwork, audit
from repro.pastry import PastryNetwork

REPO_ROOT = Path(__file__).resolve().parents[1]


def build_pastry(n: int, b: int = 4, l: int = 16, seed: int = 1) -> PastryNetwork:
    """A Pastry overlay of ``n`` nodes grown via the join protocol."""
    net = PastryNetwork(b=b, l=l, seed=seed)
    net.build(n)
    return net


def build_past(
    n: int = 24,
    capacity: int = 2_000_000,
    k: int = 3,
    l: int = 16,
    seed: int = 1,
    **config_kwargs,
) -> PastNetwork:
    """A PAST deployment of ``n`` uniform-capacity nodes."""
    config = PastConfig(l=l, k=k, seed=seed, **config_kwargs)
    net = PastNetwork(config)
    net.build([capacity] * n)
    return net


def fill_network(net: PastNetwork, rng: random.Random, target_util: float,
                 owner=None, max_size: int = 400_000, name_prefix: str = "fill"):
    """Insert lognormal-sized files until the target utilization is reached.

    Returns the list of successfully inserted fileIds.
    """
    owner = owner or net.create_client(f"{name_prefix}-owner")
    node_ids = [node.node_id for node in net.nodes()]
    fids = []
    i = 0
    while net.utilization() < target_util and i < 100_000:
        size = min(int(rng.lognormvariate(7.2, 2.0)) + 1, max_size)
        origin = node_ids[rng.randrange(len(node_ids))]
        result = net.insert(f"{name_prefix}-{i}", owner, size, origin)
        if result.success:
            fids.append(result.file_id)
        i += 1
    return fids


@pytest.fixture
def small_pastry() -> PastryNetwork:
    return build_pastry(40, l=8, seed=3)


@pytest.fixture
def small_past() -> PastNetwork:
    return build_past(n=24, seed=3)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture(scope="session")
def check_reports_across_hash_seeds():
    """``repro check --json`` on the tree under PYTHONHASHSEED 0 and 31337.

    One subprocess pair serves every hash-seed determinism test: the
    report must be byte-identical, and each report's ``schema: match``
    says the schema recomputed under that seed equals the committed bytes.
    """
    outputs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--json"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout)
    return outputs


@pytest.fixture
def audited():
    """Register PAST networks for an invariant audit at test teardown.

    Usage: ``audited(net)`` after building a network; once the test body
    finishes, every registered network's final state is audited and any
    ``Violation`` fails the test.  This wires the runtime half of the
    determinism/invariant story (``repro.core.invariants``) into the
    integration suite without each test re-implementing the check.
    """
    registered = []
    yield registered.append
    for net in registered:
        report = audit(net)
        assert report.ok, (
            "invariant violations in final network state: "
            f"{[str(v) for v in report.violations[:5]]}"
        )
