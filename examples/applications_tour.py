"""Tour of the cost-model applications from Section 6.7 of the paper.

Once Cleo's models are trained, they answer more questions than "which
plan": this example exercises each application the paper names as a
cost-model use case on one trained workload —

1. performance prediction with calibrated confidence intervals;
2. SLO-driven resource allocation (fewest containers under a deadline);
3. task-runtime estimates driving a cluster scheduler;
4. work-weighted query progress estimation;
5. what-if analysis: materializing a common subexpression, input growth;
6. machine-SKU advice (Section 5.2's "VM instance types" hook).

Every application prices a plan's operators through the cost model
(``CleoCostModel``) and rolls the learned seconds up with
``repro.execution.trace`` — so a prediction and the executed trace it is
compared against (step 4) are the same ``Timeline`` type.

Run:  python examples/applications_tour.py
"""

from __future__ import annotations

from repro.applications import (
    JobPerformancePredictor,
    MachineSku,
    ProgressEstimator,
    ResourceAllocator,
    SchedulingStudy,
    SkuAdvisor,
    WhatIfAnalyzer,
    evaluate_stage_count_baseline,
    find_materialization_candidates,
)
from repro.cardinality import CardinalityEstimator
from repro.core import CleoCostModel, CleoTrainer
from repro.cost import DefaultCostModel
from repro.execution.hardware import ClusterSpec
from repro.execution.trace import trace_job
from repro.optimizer.partition import AnalyticalStrategy
from repro.optimizer.planner import PlannerConfig
from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner
from repro.workload.templates import instantiate


def main() -> None:
    # -- Train Cleo on a small synthetic cluster (as in quickstart) ------- #
    cluster = ClusterSpec(name="appcluster")
    config = ClusterWorkloadConfig(
        cluster_name="appcluster", n_tables=8, n_fragments=14, n_templates=24, seed=7
    )
    generator = WorkloadGenerator(config)
    runner = WorkloadRunner(cluster=cluster, seed=7, keep_plans=True)
    log = runner.run_days(generator, days=range(1, 4))
    predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])
    print(f"trained {predictor.model_count} models from {len(log)} jobs\n")

    day3 = list(log.filter(days=[3]))
    example_job = day3[0]
    example_plan = runner.plans[example_job.job_id]

    # -- 1. Performance prediction --------------------------------------- #
    print("== 1. performance prediction ==")
    perf = JobPerformancePredictor(predictor, CardinalityEstimator(runner.estimator_config))
    calibration = log.filter(days=[3])  # held out from training days 1-2
    perf.calibrate_jobs(runner.plans, calibration)
    interval = perf.predict_interval(example_plan, coverage=0.9)
    print(f"job {example_job.job_id}:")
    print(f"  predicted latency: {interval.point:.1f}s "
          f"(90% interval [{interval.low:.1f}, {interval.high:.1f}])")
    print(f"  actual latency:    {example_job.latency_seconds:.1f}s "
          f"(covered: {interval.contains(example_job.latency_seconds)})\n")

    # -- 2. SLO-driven resource allocation -------------------------------- #
    print("== 2. resource allocation under a deadline ==")
    spec = generator.jobs_for_day(3)[0]
    logical = instantiate(spec, generator.catalog_for_day(3))
    allocator = ResourceAllocator(
        predictor,
        CardinalityEstimator(runner.estimator_config),
        base_config=PlannerConfig(
            max_partitions=512, partition_strategy=AnalyticalStrategy()
        ),
    )
    wide_open = allocator.tradeoff_curve(logical, budgets=[512])[0].predicted_latency
    decision = allocator.allocate(logical, deadline_seconds=wide_open * 1.5)
    print(decision.describe())
    print()

    # -- 3. Task-runtime estimates for scheduling -------------------------- #
    print("== 3. scheduling with learned task-runtime estimates ==")
    plans = {job.job_id: runner.plans[job.job_id] for job in day3[:16]}
    study = SchedulingStudy(
        simulator=runner.simulator,
        estimator=CardinalityEstimator(runner.estimator_config),
        total_containers=16,
        policy="sjf",
    )
    results = study.run(
        plans,
        {"learned": CleoCostModel(predictor), "default": DefaultCostModel()},
    )
    oracle = study.oracle(plans)
    print(f"  {'estimator':<10} {'makespan':>10} {'mean JCT':>10}")
    for name, outcome in {**results, "oracle": oracle}.items():
        print(f"  {name:<10} {outcome.makespan:9.1f}s "
              f"{outcome.mean_job_completion:9.1f}s")
    print()

    # -- 4. Query progress estimation -------------------------------------- #
    # Predicted and executed timelines of one plan, stage for stage.
    print("== 4. progress estimation ==")
    trace = trace_job(runner.simulator, example_plan)
    estimator = ProgressEstimator(perf.predict(example_plan))
    weighted = estimator.evaluate(trace)
    baseline = evaluate_stage_count_baseline(trace)
    print(f"  work-weighted indicator: mean |error| {weighted.mean_abs_error:5.3f}")
    print(f"  stage-count baseline:    mean |error| {baseline.mean_abs_error:5.3f}")
    halfway = trace.latency_seconds / 2
    print(f"  at t={halfway:.0f}s: {100 * estimator.progress_at(trace, halfway):.0f}% done, "
          f"~{estimator.remaining_seconds(trace, halfway):.0f}s remaining\n")

    # -- 5. What-if analysis ------------------------------------------------ #
    print("== 5. what-if analysis ==")
    logical_plans = {
        spec.job_id: instantiate(spec, generator.catalog_for_day(3))
        for spec in generator.jobs_for_day(3)[:10]
    }
    analyzer = WhatIfAnalyzer(predictor, CardinalityEstimator(runner.estimator_config))
    candidates = find_materialization_candidates(logical_plans, min_nodes=3)
    if candidates:
        top = candidates[0]
        print(f"  top materialization candidate: {top.describe()}")
        outcomes = analyzer.evaluate_materialization(logical_plans, top)
        for outcome in outcomes[:4]:
            print(f"    {outcome.describe()}")
    first_job_id, first_logical = next(iter(logical_plans.items()))
    base_table = next(
        node.table for node in first_logical.walk() if node.table is not None
    )
    print(f"  growth what-if on {base_table}:")
    for factor, outcome in analyzer.evaluate_growth(
        first_logical, base_table, [2.0, 4.0], job_id=first_job_id
    ):
        print(f"    x{factor:.0f}: predicted latency "
              f"{outcome.variant.latency_seconds:8.1f}s ({outcome.latency_delta_pct:+.1f}%)")
    print()

    # -- 6. Machine-SKU advice (Section 5.2's "VM instance types") ---------- #
    print("== 6. machine-SKU advice ==")
    skus = [
        MachineSku(name="standard_d8", speed_factor=1.0, price_per_container_hour=0.10),
        MachineSku(name="compute_f16", speed_factor=1.8, price_per_container_hour=0.21),
        MachineSku(name="burst_b4", speed_factor=0.6, price_per_container_hour=0.045),
    ]
    sku_advisor = SkuAdvisor(predictor, CardinalityEstimator(runner.estimator_config))
    standard_latency = sku_advisor.estimate(example_plan, skus[0]).latency_seconds
    recommendation = sku_advisor.recommend(
        example_plan, skus, deadline_seconds=standard_latency * 0.9
    )
    print(recommendation.describe())
    frontier = ", ".join(e.sku.name for e in recommendation.pareto_frontier)
    print(f"  pareto frontier: {frontier}")


if __name__ == "__main__":
    main()
