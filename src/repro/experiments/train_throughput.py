"""Training-throughput benchmark: scalar reference vs columnar trainer.

The feedback loop retrains per-signature models over every operator
instance daily (Section 5.1), so training throughput — not just accuracy —
decides whether learned cost models are usable in the optimizer loop.
This benchmark times ``CleoTrainer.train`` end to end on a multi-day
generated workload twice: once through the pinned per-record scalar
reference path and once through the columnar ``FeatureTable`` path, and
verifies that the two produce bitwise-identical predictions on the final
day before reporting the speedup.

Run it with ``repro bench train`` (:mod:`repro.experiments.throughput`) to
emit ``BENCH_train.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.robustness import score_table
from repro.core.trainer import CleoTrainer
from repro.execution.runtime_log import RunLog
from repro.experiments.shared import cluster_spec, workload_config
from repro.experiments.throughput import path_stats, speedup, timed
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner


def build_workload(
    scale: str = "small",
    days: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    cluster: str = "cluster1",
) -> RunLog:
    """Generate and execute the benchmark workload (fresh, uncached)."""
    generator = WorkloadGenerator(workload_config(cluster, scale, seed))
    runner = WorkloadRunner(cluster=cluster_spec(cluster), seed=seed)
    return runner.run_days(generator, list(days))


def run_benchmark(
    scale: str = "small",
    days: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    repeats: int = 3,
    cluster: str = "cluster1",
) -> dict:
    """Time both trainer paths and check prediction parity.

    Returns a JSON-ready dict; ``speedup`` is best-of-``repeats`` scalar
    time over best columnar time.
    """
    log = build_workload(scale=scale, days=days, seed=seed, cluster=cluster)
    trainer = CleoTrainer()

    scalar_times, scalar_predictor = timed(lambda: trainer.train_reference(log), repeats)
    columnar_times, columnar_predictor = timed(lambda: trainer.train(log), repeats)

    table = log.filter(days=[log.days[-1]]).to_table()
    scalar_preds = score_table(scalar_predictor, table)
    columnar_preds = score_table(columnar_predictor, table)
    identical = bool(np.array_equal(scalar_preds, columnar_preds))

    return {
        "benchmark": "train_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "days": list(days),
            "seed": seed,
            "operator_count": log.operator_count,
            "job_count": len(log),
        },
        "models_trained": columnar_predictor.store.count(),
        "scalar_reference": path_stats(scalar_times, operators=log.operator_count),
        "columnar": path_stats(columnar_times, operators=log.operator_count),
        "speedup": speedup(scalar_times, columnar_times),
        "predictions_bitwise_identical": identical,
    }


def format_result(result: dict) -> str:
    """One-paragraph human summary of a benchmark result."""
    workload = result["workload"]
    return (
        f"train_throughput [{workload['cluster']} scale={workload['scale']} "
        f"days={workload['days']} seed={workload['seed']}]: "
        f"{workload['operator_count']} operators, "
        f"{result['models_trained']} models; "
        f"scalar {result['scalar_reference']['seconds_best']}s -> "
        f"columnar {result['columnar']['seconds_best']}s "
        f"({result['speedup']}x, bitwise identical="
        f"{result['predictions_bitwise_identical']})"
    )
