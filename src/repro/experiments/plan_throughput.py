"""Plan-throughput benchmark: batched learned-cost planning vs scalar.

The paper's retrofitting story (Section 5) puts the learned models *inside*
the optimizer: every candidate costed during the Cascades search and every
partition-exploration probe is a learned prediction.  After the training,
workload, and serving pipelines went columnar (PRs 2-4), that optimizer
loop was the last scalar hot path — one Python ``operator_cost``
round-trip per candidate.  This benchmark times re-planning the canonical
generated workload's test day with learned costs through both paths:

* **scalar** — ``CleoCostModel(batched=False)``: the retained per-candidate
  ``operator_cost`` loop (one request materialization, one packed
  single-row prediction per costed operator) and per-candidate
  ``_stage_cost_at`` partition probes;
* **batched** — the default ``CleoCostModel``: the planner defers frontier
  costs into a pending ledger priced through
  :meth:`~repro.serving.service.CleoService.predict_inputs` in batched
  passes, and partition exploration prices every stage's whole candidate
  sweep as one columnar P-grid
  (:meth:`~repro.core.cost_model.CleoCostModel.price_stage_sweep`).

Two phases are timed: ``structural`` (the Cascades search alone) and
``partitioned`` (search + Section 5.2 partition exploration with geometric
sampling — the paper's full retrofitted configuration, and the headline
``speedup``).  Before any timing is reported the two paths' plans are
verified identical — operator shapes, partition counts, estimated costs
(exact float equality), and candidates considered.

Run it from the CLI (``python scripts/bench_plan.py``) to emit
``BENCH_plan.json``, or through ``benchmarks/test_plan_throughput.py``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.experiments.shared import get_bundle
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.workload.templates import instantiate


def _plan_fingerprint(planned) -> tuple:
    """Everything a plan-choice divergence would perturb."""
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


def _time_planner(planner, jobs, repeats: int) -> tuple[list[float], list[tuple]]:
    times: list[float] = []
    fingerprints: list[tuple] = []
    for _ in range(max(1, repeats)):
        fingerprints = []
        start = time.perf_counter()
        for job_id, logical in jobs:
            planner.jitter_salt = job_id
            fingerprints.append(_plan_fingerprint(planner.plan(logical)))
        times.append(time.perf_counter() - start)
    return times, fingerprints


def run_benchmark(
    scale: str = "small",
    seed: int = 0,
    repeats: int = 5,
    cluster: str = "cluster1",
) -> dict:
    """Time both learned-cost planning paths and check plan parity.

    Returns a JSON-ready dict; the top-level ``speedup`` is best-of-
    ``repeats`` scalar time over best batched time for the ``partitioned``
    phase (the full retrofitted configuration).
    """
    bundle = get_bundle(cluster, scale=scale, seed=seed)
    predictor = bundle.predictor()
    test_day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(test_day)
    jobs = [
        (job.job_id, instantiate(job, catalog))
        for job in bundle.generator.jobs_for_day(test_day)
    ]
    n_jobs = len(jobs)

    strategy = SamplingStrategy(scheme="geometric")
    phase_configs = {
        "structural": PlannerConfig(),
        "partitioned": PlannerConfig(partition_strategy=strategy),
    }

    phases: dict[str, dict] = {}
    all_identical = True
    for phase, config in phase_configs.items():
        scalar_planner = QueryPlanner(
            CleoCostModel(predictor, batched=False), CardinalityEstimator(), config
        )
        batched_planner = QueryPlanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        scalar_times, scalar_plans = _time_planner(scalar_planner, jobs, repeats)
        batched_times, batched_plans = _time_planner(batched_planner, jobs, repeats)
        identical = scalar_plans == batched_plans
        all_identical = all_identical and identical
        scalar_best, batched_best = min(scalar_times), min(batched_times)
        phases[phase] = {
            "scalar": {
                "path": "per-candidate operator_cost loop",
                "seconds": [round(t, 4) for t in scalar_times],
                "seconds_best": round(scalar_best, 4),
                "plans_per_second": round(n_jobs / scalar_best, 1),
            },
            "batched": {
                "path": "deferred frontier ledger -> predict_inputs batches"
                + (" + one P-grid per plan sweep" if phase == "partitioned" else ""),
                "seconds": [round(t, 4) for t in batched_times],
                "seconds_best": round(batched_best, 4),
                "plans_per_second": round(n_jobs / batched_best, 1),
            },
            "speedup": round(scalar_best / batched_best, 2),
            "plans_bitwise_identical": bool(identical),
        }

    partitioned = phases["partitioned"]
    return {
        "benchmark": "plan_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "seed": seed,
            "test_day": int(test_day),
            "job_count": n_jobs,
        },
        "models_served": predictor.store.count(),
        "planner": {
            "partition_strategy": strategy.name,
            "skip_coefficient": strategy.skip_coefficient,
            "max_partitions": PlannerConfig().max_partitions,
        },
        "prediction_cache": "disabled (exact per-prediction lookup accounting)",
        "phases": phases,
        "speedup": partitioned["speedup"],
        "speedup_structural": phases["structural"]["speedup"],
        "plans_per_second": partitioned["batched"]["plans_per_second"],
        "plans_bitwise_identical": bool(all_identical),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def write_result(result: dict, path: str | Path) -> Path:
    """Write the benchmark result as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def format_result(result: dict) -> str:
    """One-paragraph human summary of a benchmark result."""
    workload = result["workload"]
    partitioned = result["phases"]["partitioned"]
    return (
        f"plan_throughput [{workload['cluster']} scale={workload['scale']} "
        f"seed={workload['seed']}]: {workload['job_count']} jobs re-planned "
        f"with learned costs (day {workload['test_day']}, "
        f"{result['models_served']} models); partitioned "
        f"{partitioned['scalar']['seconds_best']}s -> "
        f"{partitioned['batched']['seconds_best']}s ({result['speedup']}x, "
        f"{result['plans_per_second']:.0f} plans/s; structural "
        f"{result['speedup_structural']}x), "
        f"bitwise identical={result['plans_bitwise_identical']}"
    )
