"""``repro check``: the one static gate over every rule catalogue."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

#: One finding per catalogue: an unseeded RNG (determinism), a raw
#: simulator timer in an engine-pure module (``conc-seam``), and an
#: unannotated remote parameter (``wire-serializable``).
PLANTED = {
    "repro/pastry/keepalive.py": (
        "import random\n"
        "\n"
        "rng = random.Random()\n"
        "\n"
        "\n"
        "class Monitor:\n"
        "    def watch(self):\n"
        "        self.sim.schedule(1.0, self.watch)\n"
    ),
    "repro/core/fixture.py": (
        "class Store:\n"
        "    def fetch(self, file_id) -> bytes:\n"
        "        return b''\n"
        "\n"
        "\n"
        "class Node:\n"
        "    def __init__(self, transport, store: Store):\n"
        "        self.transport = transport\n"
        "        self.store = store\n"
        "\n"
        "    def pull(self, peer, fid: int) -> bytes:\n"
        "        delivered, data = self.transport.send(\n"
        "            self.node_id, peer.node_id, peer.store.fetch, fid\n"
        "        )\n"
        "        if not delivered:\n"
        "            return b''\n"
        "        return data\n"
    ),
}


def test_tree_passes_the_gate(checked_src, check_reports_across_hash_seeds):
    assert not checked_src.new
    report = checked_src.render(as_json=True)
    payload = json.loads(report)
    assert payload == {"findings": [], "count": 0, "baselined": 51, "schema": "match"}
    # ``repro check --json`` prints exactly this result.
    assert check_reports_across_hash_seeds[0] == report + "\n"


def test_planted_tree_reports_every_catalogue_at_once(tmp_path, capsys):
    for name, source in PLANTED.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    assert main(["check", str(tmp_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = sorted(f["rule"] for f in payload["findings"])
    assert rules == ["conc-seam", "unseeded-random", "wire-serializable"]
    assert payload["schema"] == "skipped"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing")]) == 2
    assert "no such file" in capsys.readouterr().err
    with pytest.raises(SystemExit) as usage:
        main(["check", "--select", "layering"])
    assert usage.value.code == 2
    # The committed schema lies outside tmp_path: nothing to rewrite.
    assert main(["check", str(tmp_path), "--write-schema"]) == 2
