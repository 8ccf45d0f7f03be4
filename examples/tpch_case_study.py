"""TPC-H case study: which plans change when the optimizer learns costs?

Reproduces the protocol of Section 6.6.2 at SF 1000: run all 22 queries ten
times with random parameters to train Cleo, then re-optimize each query and
diff the plans.  The paper's changes came from (1) more optimal partition
counts, (2) skipped exchanges, and (3) different join implementations; this
script prints which of those mechanisms fired per query.

Run:  python examples/tpch_case_study.py
"""

from __future__ import annotations

from repro.cardinality import CardinalityEstimator
from repro.core import CleoConfig, CleoCostModel, CleoTrainer
from repro.cost import DefaultCostModel
from repro.data import tpch_catalog
from repro.execution import ExecutionSimulator
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import RunLog
from repro.optimizer import AnalyticalStrategy, PlannerConfig, QueryPlanner
from repro.plan.physical import PhysOpType
from repro.workload.tpch_queries import TpchQuerySet


def plan_diff(default_plan, cleo_plan) -> list[str]:
    """Human-readable description of what changed between two plans."""
    changes = []
    d_ops = [op.op_type for op in default_plan.walk()]
    c_ops = [op.op_type for op in cleo_plan.walk()]
    d_joins = sorted(o.value for o in d_ops if o in (PhysOpType.HASH_JOIN, PhysOpType.MERGE_JOIN))
    c_joins = sorted(o.value for o in c_ops if o in (PhysOpType.HASH_JOIN, PhysOpType.MERGE_JOIN))
    if d_joins != c_joins:
        changes.append(f"join impls {d_joins} -> {c_joins}")
    d_x = sum(1 for o in d_ops if o is PhysOpType.EXCHANGE)
    c_x = sum(1 for o in c_ops if o is PhysOpType.EXCHANGE)
    if d_x != c_x:
        changes.append(f"exchanges {d_x} -> {c_x}")
    d_local = sum(1 for o in d_ops if o is PhysOpType.LOCAL_AGGREGATE)
    c_local = sum(1 for o in c_ops if o is PhysOpType.LOCAL_AGGREGATE)
    if d_local != c_local:
        changes.append(f"local aggs {d_local} -> {c_local}")
    d_parts = [op.partition_count for op in default_plan.walk()]
    c_parts = [op.partition_count for op in cleo_plan.walk()]
    if d_ops == c_ops and d_parts != c_parts:
        changes.append("partition counts")
    return changes


def main() -> None:
    catalog = tpch_catalog(1000.0)  # the paper's 1 TB scale factor
    simulator = ExecutionSimulator(ClusterSpec(name="tpch"), seed=0)
    estimator = CardinalityEstimator()
    queries = TpchQuerySet(catalog, seed=0)
    default_planner = QueryPlanner(
        DefaultCostModel(), estimator, PlannerConfig(partition_jitter=0.35)
    )

    print("training: 22 queries x 10 randomized runs ...")
    engine = BatchedExecutionEngine(simulator)
    for run in range(10):
        for query in queries.all_queries(run=run):
            default_planner.jitter_salt = f"r{run}q{query.query_id}"
            engine.add_plan(
                default_planner.plan(query.plan).plan,
                estimator,
                job_id=f"q{query.query_id}_r{run}",
                template_id=f"q{query.query_id}",
                day=1 + run % 2,
            )
    log = RunLog(jobs=engine.finish())

    predictor = CleoTrainer(CleoConfig()).train(log, individual_days=[1], combined_days=[2])
    cleo_planner = QueryPlanner(
        CleoCostModel(predictor), estimator,
        PlannerConfig(partition_strategy=AnalyticalStrategy()),
    )

    print(f"{'query':<6} {'latency':>18} {'cpu-hours':>18}  changes")
    for query in queries.all_queries(run=11):
        default_planner.jitter_salt = f"eval_q{query.query_id}"
        p0 = default_planner.plan(query.plan).plan
        p1 = cleo_planner.plan(query.plan).plan
        changes = plan_diff(p0, p1)
        if not changes:
            continue
        l0, l1 = simulator.expected_job_latency(p0), simulator.expected_job_latency(p1)
        c0, c1 = simulator.expected_cpu_seconds(p0), simulator.expected_cpu_seconds(p1)
        print(
            f"Q{query.query_id:<5} {l0/60:7.1f} -> {l1/60:6.1f}m "
            f"{c0/3600:8.2f} -> {c1/3600:6.2f}h  {'; '.join(changes)}"
        )


if __name__ == "__main__":
    main()
