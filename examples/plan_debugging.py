"""Plan debugging: visualize plans, stages, and execution timelines.

Shows the debuggability tooling around the optimizer and simulator: ASCII
plan trees, stage summaries, execution timelines with critical-path
analysis (``trace_job``: the simulator's noise-free seconds under the one
stage rule of ``repro.execution.trace``), and a before/after comparison of
a default plan vs its Cleo replanning — the workflow an engineer uses to
answer "why is the new plan faster?".

Run:  python examples/plan_debugging.py
"""

from __future__ import annotations

from repro.cardinality import CardinalityEstimator
from repro.core import CleoCostModel, CleoTrainer
from repro.execution.hardware import ClusterSpec
from repro.execution.trace import compare_traces, trace_job
from repro.optimizer import AnalyticalStrategy, PlannerConfig, QueryPlanner
from repro.plan.visualize import diff_plans, render_stages, render_tree
from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner
from repro.workload.templates import instantiate


def main() -> None:
    cluster = ClusterSpec(name="democluster")
    generator = WorkloadGenerator(
        ClusterWorkloadConfig(
            cluster_name="democluster", n_tables=8, n_fragments=12, n_templates=18, seed=5
        )
    )
    runner = WorkloadRunner(cluster=cluster, seed=5)
    log = runner.run_days(generator, days=range(1, 4))
    predictor = CleoTrainer().train(log, individual_days=[1, 2], combined_days=[2])

    cleo_planner = QueryPlanner(
        CleoCostModel(predictor),
        CardinalityEstimator(),
        PlannerConfig(partition_strategy=AnalyticalStrategy()),
    )

    # Find a job whose plan Cleo changes, then explain the change.
    catalog = generator.catalog_for_day(3)
    for job in generator.jobs_for_day(3):
        logical = instantiate(job, catalog)
        runner._planner.jitter_salt = job.job_id
        default_plan = runner._planner.plan(logical).plan
        cleo_plan = cleo_planner.plan(logical).plan
        changes = diff_plans(default_plan, cleo_plan)
        if changes:
            break
    else:
        print("no plan changes found")
        return

    print(f"job {job.job_id}: plan changed")
    print("changes:", "; ".join(changes))

    print("\n--- default physical plan ---")
    print(render_tree(default_plan))
    print("\n--- default stages ---")
    print(render_stages(default_plan))

    print("\n--- Cleo physical plan ---")
    print(render_tree(cleo_plan))

    before = trace_job(runner.simulator, default_plan)
    after = trace_job(runner.simulator, cleo_plan)
    print("\n--- execution timeline (default) ---")
    print(before.describe())
    print("\n--- why the Cleo plan wins ---")
    print(compare_traces(before, after))


if __name__ == "__main__":
    main()
