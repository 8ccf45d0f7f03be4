"""Prediction-throughput benchmark: packed serving runtime vs grouped path.

The paper's steady-state cost is *serving*: "all models relevant for a
cluster are loaded upfront by the optimizer" and consulted millions of
times per optimization pass, five learned lookups per costed operator
(Sections 5.1, 6.5).  This benchmark times pricing the canonical generated
workload through both serving paths over a trained Cleo:

* **reference** — the retained pre-packed pipeline
  (:meth:`~repro.serving.service.CleoService.predict_records_reference`):
  per-record ``PredictionRequest`` materialization, per-request cache-key
  hashing and in-batch dedup, a fresh feature-table build, per-batch
  derived-feature expansion, one object-graph model call per covering
  ``(kind, signature)`` group, tree-at-a-time ensemble traversal;
* **packed** — the table-native fast path
  (:meth:`~repro.serving.service.CleoService.predict_table`): the run log's
  cached columnar table priced in a constant number of numpy passes over
  the compiled :class:`~repro.core.packed.PackedModelBank` and the flat
  tree ensemble.

Both services run with the prediction LRU *disabled* so the benchmark
measures steady-state compute, not cache hits, and the two paths' outputs
are verified bitwise identical before the speedup is reported.  The first
packed repeat pays one-time bank compilation (recorded as
``seconds_first``); best-of-``repeats`` measures the steady state.

Run it with ``repro bench predict`` (:mod:`repro.experiments.throughput`)
to emit ``BENCH_predict.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import CleoTrainer
from repro.experiments.throughput import path_stats, speedup, timed
from repro.experiments.train_throughput import build_workload
from repro.serving.service import CleoService


def run_benchmark(
    scale: str = "small",
    days: tuple[int, ...] = (1, 2, 3),
    seed: int = 0,
    repeats: int = 5,
    cluster: str = "cluster1",
) -> dict:
    """Time both serving paths over one workload and check bitwise parity.

    Returns a JSON-ready dict; ``speedup`` is best-of-``repeats`` reference
    time over best packed time.
    """
    log = build_workload(scale=scale, days=days, seed=seed, cluster=cluster)
    predictor = CleoTrainer().train(log)
    records = list(log.operator_records())
    table = log.to_table()

    reference_service = CleoService(predictor, prediction_cache_size=0)
    packed_service = CleoService(predictor, prediction_cache_size=0)

    reference_times, reference = timed(
        lambda: reference_service.predict_records_reference(records), repeats
    )
    packed_times, packed = timed(lambda: packed_service.predict_table(table), repeats)

    identical = bool(np.array_equal(reference, packed))
    n = len(records)
    return {
        "benchmark": "predict_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "days": list(days),
            "seed": seed,
            "operator_count": n,
            "job_count": len(log),
        },
        "models_served": predictor.store.count(),
        "prediction_cache": "disabled (steady-state compute, not cache hits)",
        "reference": path_stats(
            reference_times,
            path="predict_records_reference (request materialization + "
            "grouped object-graph calls + tree-at-a-time ensemble)",
            first=True,
            predictions=n,
        ),
        "packed": path_stats(
            packed_times,
            path="predict_table (packed model bank + flat tree ensemble)",
            first=True,
            predictions=n,
        ),
        "speedup": speedup(reference_times, packed_times),
        "speedup_first_run": speedup(reference_times[:1], packed_times[:1]),
        "predictions_bitwise_identical": identical,
    }


def format_result(result: dict) -> str:
    """One-paragraph human summary of a benchmark result."""
    workload = result["workload"]
    return (
        f"predict_throughput [{workload['cluster']} scale={workload['scale']} "
        f"days={workload['days']} seed={workload['seed']}]: "
        f"{workload['operator_count']} operators, "
        f"{result['models_served']} models served; "
        f"reference {result['reference']['seconds_best']}s -> "
        f"packed {result['packed']['seconds_best']}s "
        f"({result['speedup']}x, "
        f"{result['packed']['predictions_per_second']:.0f} predictions/s, "
        f"bitwise identical={result['predictions_bitwise_identical']})"
    )
