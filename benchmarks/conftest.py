"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one artifact of the paper — a row of
``repro.experiments.artifacts.ARTIFACTS`` — and emits a plain-text report
(printed, and saved under ``benchmarks/results/``) that places our
measured values next to the published ones.  Run with::

    pytest benchmarks/ --benchmark-only

The suite always runs at ``DEFAULT_SCALE`` (100 nodes at a quarter of
Table 1's capacities; the paper used 2250 nodes at full capacity),
because its output is the committed ``results/`` files.  To see an
artifact at another scale, print it: ``repro table2 --nodes 500 --scale
1.0`` (results converge towards the published numbers as scale grows).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.artifacts import ARTIFACTS, DEFAULT_SCALE

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Writer that prints a report block and persists it to results/."""

    def _write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 72}\n{text}\n(saved to {path})\n{'=' * 72}")

    return _write


@pytest.fixture
def paper_artifact(benchmark, report):
    """Run one table row at the default scale: time ``run`` once, save
    ``render(result)`` under the row's stem, hand back the result."""

    def _run(command: str):
        row = ARTIFACTS[command]
        result = benchmark.pedantic(row.run, args=DEFAULT_SCALE, rounds=1, iterations=1)
        report(row.stem, row.render(result))
        return result

    return _run
