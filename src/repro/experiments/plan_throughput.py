"""Plan-throughput benchmark: batched learned-cost planning vs scalar.

The paper's retrofitting story (Section 5) puts the learned models *inside*
the optimizer: every candidate costed during the Cascades search and every
partition-exploration probe is a learned prediction.  After the training,
workload, and serving pipelines went columnar (PRs 2-4), that optimizer
loop was the last scalar hot path — one Python ``operator_cost``
round-trip per candidate.  This benchmark times re-planning the canonical
generated workload's test day with learned costs through both paths:

* **scalar** — ``CleoCostModel(batched=False)``: one packed single-row
  prediction per costed candidate (the compile runs the skeleton replay, so
  each is a one-row ``price_inputs`` from the node's cached statistics), the
  partition grid included: one ``operator_cost`` probe per
  ``(stage, candidate, operator)``;
* **batched** — the default ``CleoCostModel``: the planner defers frontier
  costs into a pending ledger priced through
  :meth:`~repro.serving.service.CleoService.predict_inputs` in batched
  passes, and the same partition grid — every stage's candidate sweep, the
  guard's probes and the rows the plan total reads — is one columnar
  :meth:`~repro.core.cost_model.CleoCostModel.price_stage_sweep` call.

Two phases are timed: ``structural`` (the Cascades search alone) and
``partitioned`` (search + Section 5.2 partition exploration with geometric
sampling — the paper's full retrofitted configuration, and the headline
``speedup``).  Before any timing is reported the two paths' plans are
verified identical — operator shapes, partition counts, estimated costs
(exact float equality), and candidates considered.

Run it with ``repro bench plan`` (:mod:`repro.experiments.throughput`) to
emit ``BENCH_plan.json``.
"""

from __future__ import annotations

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.cost_model import CleoCostModel
from repro.experiments.shared import get_bundle
from repro.experiments.throughput import path_stats, plan_fingerprint, speedup, timed
from repro.optimizer.partition import SamplingStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.replan import ReplanJob
from repro.workload.templates import instantiate


def planning_fixture(cluster: str, scale: str, seed: int, instances: int = 1):
    """What both planning benchmarks (this one and ``replan_throughput``) run.

    The canonical workload's trained predictor; its test day as a fleet —
    each job replicated into ``instances`` live instances under distinct
    jitter salts; the two timed phases; and the ``planner`` result block
    describing them.
    """
    bundle = get_bundle(cluster, scale=scale, seed=seed)
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
    strategy = SamplingStrategy(scheme="geometric")
    phase_configs = {
        "structural": PlannerConfig(),
        "partitioned": PlannerConfig(partition_strategy=strategy),
    }
    planner = {
        "partition_strategy": strategy.name,
        "skip_coefficient": strategy.skip_coefficient,
        "max_partitions": PlannerConfig().max_partitions,
    }
    return bundle.predictor(), int(test_day), jobs, phase_configs, planner


def time_per_job(planner, jobs, predictor, repeats: int):
    """One full search per job, each plan fingerprinted inside the timed region.

    Returns the times, the last repeat's fingerprints and its model lookups
    (the counter is zeroed as a repeat starts and read as it ends).
    """

    def plan_all() -> tuple[list[tuple], int]:
        predictor.reset_lookup_count()
        fingerprints = []
        for job in jobs:
            planner.jitter_salt = job.salt
            fingerprints.append(plan_fingerprint(planner.plan(job.logical)))
        return fingerprints, predictor.lookup_count

    times, (fingerprints, lookups) = timed(plan_all, repeats)
    return times, fingerprints, lookups


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
    predictor, test_day, jobs, phase_configs, planner = planning_fixture(
        cluster, scale, seed
    )
    n_jobs = len(jobs)

    phases: dict[str, dict] = {}
    for phase, config in phase_configs.items():
        scalar_planner = QueryPlanner(
            CleoCostModel(predictor, batched=False), CardinalityEstimator(), config
        )
        batched_planner = QueryPlanner(
            CleoCostModel(predictor), CardinalityEstimator(), config
        )
        scalar_times, scalar_plans, _ = time_per_job(
            scalar_planner, jobs, predictor, repeats
        )
        batched_times, batched_plans, _ = time_per_job(
            batched_planner, jobs, predictor, repeats
        )
        phases[phase] = {
            "scalar": path_stats(
                scalar_times, path="per-candidate one-row pricing loop", plans=n_jobs
            ),
            "batched": path_stats(
                batched_times,
                path="deferred frontier ledger -> predict_inputs batches"
                + (
                    " + one P-grid per plan (sweep, guard and plan total)"
                    if phase == "partitioned"
                    else ""
                ),
                plans=n_jobs,
            ),
            "speedup": speedup(scalar_times, batched_times),
            "plans_bitwise_identical": scalar_plans == batched_plans,
        }

    partitioned = phases["partitioned"]
    return {
        "benchmark": "plan_throughput",
        "workload": {
            "cluster": cluster,
            "scale": scale,
            "seed": seed,
            "test_day": test_day,
            "job_count": n_jobs,
        },
        "models_served": predictor.store.count(),
        "planner": planner,
        "prediction_cache": "disabled (exact per-prediction lookup accounting)",
        "phases": phases,
        "speedup": partitioned["speedup"],
        "speedup_structural": phases["structural"]["speedup"],
        "plans_per_second": partitioned["batched"]["plans_per_second"],
        "plans_bitwise_identical": all(
            phase["plans_bitwise_identical"] for phase in phases.values()
        ),
    }


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
