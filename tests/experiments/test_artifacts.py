"""The artifact table is the one definition of the paper's evaluation.

``repro <command>`` at the default scale must print exactly the committed
``benchmarks/results/<stem>.txt``; the six rows cheap enough for tier-1
(none of them draws from numpy) are compared here, the rest by CI's
``paper`` job.  The table, the CLI, the results directory and DESIGN.md's
index must name the same artifacts.
"""

import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, main
from repro.experiments.artifacts import ARTIFACTS

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

CHEAP = ["ablation_erasure", "churn", "locality", "availability", "recovery",
         "pastry_routing"]


@pytest.mark.parametrize("command", CHEAP)
def test_command_prints_the_committed_artifact(command, capsys):
    assert main([command]) == 0
    committed = (RESULTS / f"{ARTIFACTS[command].stem}.txt").read_text()
    assert capsys.readouterr().out == committed


def test_rows_commands_results_and_design_index_are_in_bijection():
    stems = [row.stem for row in ARTIFACTS.values()]
    assert len(set(stems)) == len(stems) == 22
    assert set(COMMANDS) == set(ARTIFACTS) | {"chaos", "serve"}
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == sorted(stems)
    index = re.findall(
        r"^\|.*\| `repro (\w+)` \| `(\w+)\.txt` \|", (ROOT / "DESIGN.md").read_text(), re.M
    )
    assert sorted(index) == sorted((c, row.stem) for c, row in ARTIFACTS.items())


def test_no_committed_artifact_carries_a_wall_clock_reading():
    for path in RESULTS.glob("*.txt"):
        assert not re.search(r"elapsed|\[\d+\.\d+s\]", path.read_text()), path.name
