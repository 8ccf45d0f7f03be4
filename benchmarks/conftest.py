"""Benchmark harness: one benchmark per paper table/figure.

Each benchmark runs its experiment once (the experiments are deterministic,
seeded end to end), reports the wall time through pytest-benchmark, prints
the paper-style table, and drops the rendered result under
``benchmarks/results/`` so ``python scripts/build_experiments_md.py`` can
write EXPERIMENTS.md on demand from a real run (it is not checked in).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Workload scale used by all benchmarks (see repro.experiments.shared.SCALES).
FIGURE_SCALE = "small"
FIGURE_SEED = 0


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def run_experiment(benchmark, results_dir):
    """Run an experiment module once under pytest-benchmark and persist it."""

    def _run(module, **kwargs):
        kwargs.setdefault("scale", FIGURE_SCALE)
        kwargs.setdefault("seed", FIGURE_SEED)
        result = benchmark.pedantic(lambda: module.run(**kwargs), rounds=1, iterations=1)
        text = result.to_text()
        print()
        print(text)
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": result.rows,
            "paper": result.paper,
            "notes": result.notes,
        }
        (results_dir / f"{result.experiment_id}.json").write_text(
            json.dumps(payload, indent=2, default=str)
        )
        return result

    return _run
