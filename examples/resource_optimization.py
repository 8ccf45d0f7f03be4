"""Resource-aware planning: find latency- and resource-optimal plans.

Demonstrates Section 5 of the paper: after training Cleo, the optimizer is
re-run with the learned cost models plus partition exploration, and the new
plans are executed on the simulator to measure real latency / CPU effects.
Also compares the exploration strategies (heuristic, geometric sampling,
analytical) on cost and model lookups.

Run:  python examples/resource_optimization.py
"""

from __future__ import annotations

from repro.cardinality import CardinalityEstimator
from repro.core import CleoCostModel, CleoTrainer
from repro.execution.hardware import ClusterSpec
from repro.optimizer import (
    AnalyticalStrategy,
    PlannerConfig,
    QueryPlanner,
    SamplingStrategy,
)
from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner
from repro.workload.templates import instantiate


def main() -> None:
    cluster = ClusterSpec(name="democluster")
    generator = WorkloadGenerator(
        ClusterWorkloadConfig(
            cluster_name="democluster", n_tables=10, n_fragments=18, n_templates=30, seed=7
        )
    )
    runner = WorkloadRunner(cluster=cluster, seed=7)
    log = runner.run_days(generator, days=range(1, 4))
    predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])

    estimator = CardinalityEstimator()
    strategies = {
        "default heuristic": None,
        "cleo + geometric sampling": SamplingStrategy(scheme="geometric", skip_coefficient=2.0),
        "cleo + analytical": AnalyticalStrategy(),
    }

    catalog = generator.catalog_for_day(3)
    jobs = generator.jobs_for_day(3)[:25]
    print(f"replanning {len(jobs)} day-3 jobs under each strategy\n")

    baseline_latency = baseline_cpu = None
    for name, strategy in strategies.items():
        if strategy is None:
            planner = runner._planner  # the production default planner
        else:
            # A bare predictor's lookups are charged on the predictor itself.
            predictor.reset_lookup_count()
            planner = QueryPlanner(
                CleoCostModel(predictor), estimator, PlannerConfig(partition_strategy=strategy)
            )
        total_latency = total_cpu = 0.0
        for job in jobs:
            logical = instantiate(job, catalog)
            planner.jitter_salt = job.job_id
            plan = planner.plan(logical).plan
            total_latency += runner.simulator.expected_job_latency(plan)
            total_cpu += runner.simulator.expected_cpu_seconds(plan)
        line = (
            f"{name:<28} total latency {total_latency/60:7.1f} min, "
            f"total CPU {total_cpu/3600:7.1f} h"
        )
        if baseline_latency is None:
            baseline_latency, baseline_cpu = total_latency, total_cpu
        else:
            line += (
                f"  ({100*(1-total_latency/baseline_latency):+.1f}% latency, "
                f"{100*(1-total_cpu/baseline_cpu):+.1f}% CPU vs default)"
            )
        if strategy is not None:
            line += f"  [{predictor.lookup_count:,} model lookups]"
        print(line)


if __name__ == "__main__":
    main()
