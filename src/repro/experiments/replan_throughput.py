"""Replan-throughput benchmark: fleet skeleton replay vs per-job planning.

Recurring jobs are the paper's core serving population (Section 6.1: the
production workloads are dominated by templates that recur daily), and
re-optimizing them in bulk — after a model-bank refresh, or nightly — is a
fleet-shaped task: thousands of instances of a few hundred templates, each
instance differing only in its numbers.  This benchmark times replanning
such a fleet with learned costs through both paths:

* **baseline** — the batched ``QueryPlanner`` loop, one compile at a time:
  each instance runs the replay search over a skeleton analyzed afresh for
  it (a compile has no template id to memoize on), with deferred frontier
  pricing and its own plan-total finale;
* **fleet** — :func:`repro.optimizer.replan.replan_jobs`: each template
  shape is analyzed once and replayed per instance over slotted nodes
  (skeleton memoization), every job's search — whatever its template —
  advances to its next suspension and each wave prices the still-open
  searches' pending ledger rows in one packed ``predict_inputs`` pass, and
  the finale is
  fleet-wide: one ``price_plans`` call for every plan total or, with a
  partition strategy, one P-grid per 64 winners for their exploration,
  guard and totals.

The fleet is the canonical workload's test day with each job replicated
into several live instances under distinct jitter salts.  Two phases are
timed: ``structural`` (the Cascades search alone — the headline
``speedup``, the pure replanning path) and ``partitioned`` (search +
Section 5.2 partition exploration: the same grid in both paths, priced per
job by the baseline and per wave by the fleet, over plans both paths must
materialize first — which dilutes the replay's gain).
Before any timing is reported the two paths' plans are verified identical —
operator shapes, partition counts, estimated costs (exact float equality),
candidates considered — and, with the prediction cache disabled, identical
per-prediction model-lookup accounting.

Run it with ``repro bench replan`` (:mod:`repro.experiments.throughput`) to
emit ``BENCH_replan.json``.
"""

from __future__ import annotations

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.experiments.plan_throughput import planning_fixture, time_per_job
from repro.experiments.throughput import path_stats, plan_fingerprint, speedup, timed
from repro.optimizer.planner import QueryPlanner
from repro.optimizer.replan import FleetReplanner


def _time_fleet(replanner, jobs, predictor, repeats: int):
    """Fleet replanning; the plans are fingerprinted outside the timed region."""

    def replan_all() -> tuple[list, int]:
        predictor.reset_lookup_count()
        return replanner.replan_jobs(jobs), predictor.lookup_count

    times, (planned, lookups) = timed(replan_all, repeats)
    return times, [plan_fingerprint(p) for p in planned], lookups


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
    predictor, test_day, jobs, phase_configs, planner = planning_fixture(
        cluster, scale, seed, instances
    )
    n_jobs = len(jobs)

    phases: dict[str, dict] = {}
    for phase, config in phase_configs.items():
        baseline_planner = QueryPlanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        replanner = FleetReplanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        base_times, base_plans, base_lookups = time_per_job(
            baseline_planner, jobs, predictor, repeats
        )
        fleet_times, fleet_plans, fleet_lookups = _time_fleet(
            replanner, jobs, predictor, repeats
        )
        stats = replanner.stats()
        phases[phase] = {
            "baseline": {
                **path_stats(
                    base_times,
                    path="batched QueryPlanner, one full search per instance",
                    plans=n_jobs,
                ),
                "model_lookups": int(base_lookups),
            },
            "fleet": {
                **path_stats(
                    fleet_times,
                    path="skeleton replay, cross-template pricing waves, fleet-wide "
                    + (
                        "P-grid finale (one per 64 plans)"
                        if phase == "partitioned"
                        else "price_plans finale"
                    ),
                    plans=n_jobs,
                ),
                "model_lookups": int(fleet_lookups),
                "skeleton_builds": stats.skeleton_builds,
                "skeleton_hits": stats.skeleton_hits,
                "frontier_flushes": stats.frontier_flushes,
            },
            "speedup": speedup(base_times, fleet_times),
            "plans_bitwise_identical": base_plans == fleet_plans,
            "lookup_accounting_identical": base_lookups == fleet_lookups,
        }

    structural = phases["structural"]
    return {
        "benchmark": "replan_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "seed": seed,
            "test_day": test_day,
            "job_count": n_jobs,
            "instances_per_job": instances,
        },
        "models_served": predictor.store.count(),
        "planner": planner,
        "prediction_cache": "disabled (exact per-prediction lookup accounting)",
        "phases": phases,
        "speedup": structural["speedup"],
        "speedup_partitioned": phases["partitioned"]["speedup"],
        "plans_per_second": structural["fleet"]["plans_per_second"],
        "plans_bitwise_identical": all(
            phase["plans_bitwise_identical"] for phase in phases.values()
        ),
        "lookup_accounting_identical": all(
            phase["lookup_accounting_identical"] for phase in phases.values()
        ),
    }


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
