"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import PastConfig, PastNetwork, audit
from repro.devtools import check
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


class NoOpBackend:
    """An in-memory-only store backend: its ``note_*`` hooks observe
    without acting, so state lives in the ``LocalStore`` dicts alone."""

    def _ignore(self, *args):
        pass

    note_store = note_drop = note_pointer = _ignore
    note_drop_pointer = note_primary_flag = note_wipe = _ignore


@pytest.fixture
def noop_backends(monkeypatch):
    """Every PastNetwork built in the test gives each store a NoOpBackend,
    so the backend hook sites run without any backend behaviour."""
    orig_init = PastNetwork.__init__

    def init_with_backend(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        self.store_backend_factory = lambda node_id, plan: NoOpBackend()

    monkeypatch.setattr(PastNetwork, "__init__", init_with_backend)


@pytest.fixture(scope="session")
def checked_src():
    """``repro check`` on ``src/`` as a value, computed once per session.

    Every whole-tree gate reads this one result (its modules, findings,
    baseline split, schema state and rendered report), and the
    analyses it built stay shared for the rest of the session.  Paths
    are relative to the repo root, as the committed baseline records
    them.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return check.analyze(["src"])


@pytest.fixture(scope="session")
def check_reports_across_hash_seeds():
    """``repro check --json`` on the tree under PYTHONHASHSEED 0 and 31337.

    One subprocess pair, run side by side, serves every hash-seed
    determinism test: the report must be byte-identical, and each
    report's ``schema: match`` says the schema recomputed under that seed
    equals the committed bytes.
    """
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "check", "--json"],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        for seed in ("0", "31337")
    ]
    streams = [proc.communicate() for proc in procs]
    for proc, (stdout, stderr) in zip(procs, streams):
        assert proc.returncode == 0, stdout + stderr
    return [stdout for stdout, _ in streams]


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
