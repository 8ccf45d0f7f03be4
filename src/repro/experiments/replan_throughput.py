"""Replan-throughput benchmark: fleet skeleton replay vs per-job planning.

Recurring jobs are the paper's core serving population (Section 6.1: the
production workloads are dominated by templates that recur daily), and
re-optimizing them in bulk — after a model-bank refresh, or nightly — is a
fleet-shaped task: thousands of instances of a few hundred templates, each
instance differing only in its numbers.  This benchmark times replanning
such a fleet with learned costs through both paths:

* **baseline** — the batched ``QueryPlanner`` loop (PR 5's fastest per-job
  configuration): every instance runs the full Cascades search with
  deferred frontier pricing, one job at a time;
* **fleet** — :func:`repro.optimizer.replan.replan_jobs`: each template
  shape is analyzed once and replayed per instance over slotted nodes
  (skeleton memoization), every job's search — whatever its template —
  advances to its next suspension and each wave prices all their pending
  ledger rows in one packed ``predict_inputs`` pass, and the whole fleet's
  plan totals are reduced in a single ``price_plans`` call.

The fleet is the canonical workload's test day with each job replicated
into several live instances under distinct jitter salts.  Two phases are
timed: ``structural`` (the Cascades search alone — the headline
``speedup``, the pure replanning path) and ``partitioned`` (search +
Section 5.2 partition exploration, whose per-job exploration pass is
identical code in both paths and therefore dilutes the replay's gain).
Before any timing is reported the two paths' plans are verified identical —
operator shapes, partition counts, estimated costs (exact float equality),
candidates considered — and, with the prediction cache disabled, identical
per-prediction model-lookup accounting.

Run it from the CLI (``python scripts/bench_replan.py``) to emit
``BENCH_replan.json``, or through ``benchmarks/test_replan_throughput.py``.
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
from repro.optimizer.replan import FleetReplanner, ReplanJob
from repro.workload.templates import instantiate


def _plan_fingerprint(planned) -> tuple:
    """Everything a plan-choice divergence would perturb."""
    return (
        tuple((op.op_type.value, op.partition_count) for op in planned.plan.walk()),
        planned.estimated_cost,
        planned.candidates_considered,
    )


def _fleet_jobs(bundle, instances: int) -> list[ReplanJob]:
    test_day = bundle.log.days[-1]
    catalog = bundle.generator.catalog_for_day(test_day)
    jobs: list[ReplanJob] = []
    for spec in bundle.generator.jobs_for_day(test_day):
        logical = instantiate(spec, catalog)
        for k in range(instances):
            job_id = spec.job_id if k == 0 else f"{spec.job_id}/rep{k}"
            jobs.append(
                ReplanJob(job_id, spec.template.template_id, spec.day, logical)
            )
    return jobs


def _time_baseline(planner, jobs, predictor, repeats: int):
    times: list[float] = []
    fingerprints: list[tuple] = []
    lookups = 0
    for _ in range(max(1, repeats)):
        fingerprints = []
        predictor.reset_lookup_count()
        start = time.perf_counter()
        for job in jobs:
            planner.jitter_salt = job.salt
            fingerprints.append(_plan_fingerprint(planner.plan(job.logical)))
        times.append(time.perf_counter() - start)
        lookups = predictor.lookup_count
    return times, fingerprints, lookups


def _time_fleet(replanner, jobs, predictor, repeats: int):
    times: list[float] = []
    fingerprints: list[tuple] = []
    lookups = 0
    for _ in range(max(1, repeats)):
        predictor.reset_lookup_count()
        start = time.perf_counter()
        planned = replanner.replan_jobs(jobs)
        times.append(time.perf_counter() - start)
        lookups = predictor.lookup_count
        fingerprints = [_plan_fingerprint(p) for p in planned]
    return times, fingerprints, lookups


def run_benchmark(
    scale: str = "small",
    seed: int = 0,
    repeats: int = 5,
    cluster: str = "cluster1",
    instances: int = 4,
) -> dict:
    """Time both recurring-fleet replanning paths and check plan parity.

    Returns a JSON-ready dict; the top-level ``speedup`` is best-of-
    ``repeats`` baseline time over best fleet time for the ``structural``
    phase (the pure replanning path).
    """
    bundle = get_bundle(cluster, scale=scale, seed=seed)
    predictor = bundle.predictor()
    test_day = bundle.log.days[-1]
    jobs = _fleet_jobs(bundle, instances)
    n_jobs = len(jobs)

    strategy = SamplingStrategy(scheme="geometric")
    phase_configs = {
        "structural": PlannerConfig(),
        "partitioned": PlannerConfig(partition_strategy=strategy),
    }

    phases: dict[str, dict] = {}
    all_identical = True
    all_lookups_identical = True
    for phase, config in phase_configs.items():
        baseline_planner = QueryPlanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        replanner = FleetReplanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        base_times, base_plans, base_lookups = _time_baseline(
            baseline_planner, jobs, predictor, repeats
        )
        fleet_times, fleet_plans, fleet_lookups = _time_fleet(
            replanner, jobs, predictor, repeats
        )
        identical = base_plans == fleet_plans
        lookups_identical = base_lookups == fleet_lookups
        all_identical = all_identical and identical
        all_lookups_identical = all_lookups_identical and lookups_identical
        base_best, fleet_best = min(base_times), min(fleet_times)
        stats = replanner.stats()
        phases[phase] = {
            "baseline": {
                "path": "batched QueryPlanner, one full search per instance",
                "seconds": [round(t, 4) for t in base_times],
                "seconds_best": round(base_best, 4),
                "plans_per_second": round(n_jobs / base_best, 1),
                "model_lookups": int(base_lookups),
            },
            "fleet": {
                "path": "skeleton replay, cross-template pricing waves, "
                "fleet-wide price_plans finale",
                "seconds": [round(t, 4) for t in fleet_times],
                "seconds_best": round(fleet_best, 4),
                "plans_per_second": round(n_jobs / fleet_best, 1),
                "model_lookups": int(fleet_lookups),
                "skeleton_builds": stats.skeleton_builds,
                "skeleton_hits": stats.skeleton_hits,
                "frontier_flushes": stats.frontier_flushes,
            },
            "speedup": round(base_best / fleet_best, 2),
            "plans_bitwise_identical": bool(identical),
            "lookup_accounting_identical": bool(lookups_identical),
        }

    structural = phases["structural"]
    return {
        "benchmark": "replan_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "seed": seed,
            "test_day": int(test_day),
            "job_count": n_jobs,
            "instances_per_job": instances,
        },
        "models_served": predictor.store.count(),
        "planner": {
            "partition_strategy": strategy.name,
            "skip_coefficient": strategy.skip_coefficient,
            "max_partitions": PlannerConfig().max_partitions,
        },
        "prediction_cache": "disabled (exact per-prediction lookup accounting)",
        "phases": phases,
        "speedup": structural["speedup"],
        "speedup_partitioned": phases["partitioned"]["speedup"],
        "plans_per_second": structural["fleet"]["plans_per_second"],
        "plans_bitwise_identical": bool(all_identical),
        "lookup_accounting_identical": bool(all_lookups_identical),
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
    structural = result["phases"]["structural"]
    return (
        f"replan_throughput [{workload['cluster']} scale={workload['scale']} "
        f"seed={workload['seed']}]: {workload['job_count']} recurring "
        f"instances ({workload['instances_per_job']} per job, day "
        f"{workload['test_day']}, {result['models_served']} models) replanned "
        f"with learned costs; structural "
        f"{structural['baseline']['seconds_best']}s -> "
        f"{structural['fleet']['seconds_best']}s ({result['speedup']}x, "
        f"{result['plans_per_second']:.0f} plans/s; partitioned "
        f"{result['speedup_partitioned']}x), bitwise "
        f"identical={result['plans_bitwise_identical']}, lookup accounting "
        f"identical={result['lookup_accounting_identical']}"
    )
