"""Figure 20 / Section 6.6.2: the TPC-H case study.

Protocol: run all 22 queries 10 times with random parameters to build the
training log; train Cleo; re-optimize each query with learned costs and
resource-aware planning; execute both plans on the simulator.  The paper
finds 6 queries change plans (Q8, Q9, Q11, Q16, Q20 improve; Q17 regresses
via an unhelpful local aggregation), through three mechanisms: more optimal
partitioning, skipped exchanges, and different join implementations.
"""

from __future__ import annotations

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.config import CleoConfig
from repro.core.cost_model import CleoCostModel
from repro.core.trainer import CleoTrainer
from repro.cost.default_model import DefaultCostModel
from repro.data.tpch import tpch_catalog
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import RunLog
from repro.execution.simulator import ExecutionSimulator
from repro.experiments.harness import ExperimentResult
from repro.optimizer.partition import AnalyticalStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.workload.tpch_queries import TpchQuerySet

PAPER = {
    "changed_queries": ["Q8", "Q9", "Q11", "Q16", "Q17", "Q20"],
    "improved_latency_and_cpu": ["Q8", "Q9", "Q16", "Q20"],
    "improved_latency_only": ["Q11"],
    "regressed": ["Q17"],
    "scale_factor": 1000,
}


def run(
    scale: str = "small",
    seed: int = 0,
    scale_factor: float = 1000.0,
    training_runs: int = 10,
) -> ExperimentResult:
    catalog = tpch_catalog(scale_factor)
    cluster = ClusterSpec(name="tpch")
    simulator = ExecutionSimulator(cluster, seed=seed)
    estimator = CardinalityEstimator()
    queries = TpchQuerySet(catalog, seed=seed)

    default_planner = QueryPlanner(
        DefaultCostModel(), estimator, PlannerConfig(partition_jitter=0.35)
    )

    # Training phase: 10 randomized runs of the full suite on the default plans.
    engine = BatchedExecutionEngine(simulator)
    for run_idx in range(training_runs):
        for query in queries.all_queries(run=run_idx):
            default_planner.jitter_salt = f"tpch_r{run_idx}_q{query.query_id}"
            engine.add_plan(
                default_planner.plan(query.plan).plan,
                estimator,
                job_id=f"q{query.query_id}_r{run_idx}",
                template_id=f"q{query.query_id}",
                day=1 + run_idx % 2,
            )
    log = RunLog(jobs=engine.finish())

    predictor = CleoTrainer(CleoConfig(seed=seed)).train(
        log, individual_days=[1], combined_days=[2]
    )
    cleo_planner = QueryPlanner(
        CleoCostModel(predictor),
        estimator,
        PlannerConfig(partition_strategy=AnalyticalStrategy()),
    )

    rows = []
    changed = []
    series: dict[str, list] = {"query": [], "latency_improvement_pct": [], "cpu_improvement_pct": []}
    for query in queries.all_queries(run=training_runs + 1):
        default_planner.jitter_salt = f"tpch_eval_q{query.query_id}"
        p0 = default_planner.plan(query.plan).plan
        p1 = cleo_planner.plan(query.plan).plan
        structure_changed = [o.op_type.value for o in p0.walk()] != [
            o.op_type.value for o in p1.walk()
        ]
        partitions_changed = [o.partition_count for o in p0.walk()] != [
            o.partition_count for o in p1.walk()
        ]
        if not (structure_changed or partitions_changed):
            continue
        changed.append(f"Q{query.query_id}")
        l0, l1 = simulator.expected_job_latency(p0), simulator.expected_job_latency(p1)
        c0, c1 = simulator.expected_cpu_seconds(p0), simulator.expected_cpu_seconds(p1)
        lat_impr = 100.0 * (l0 - l1) / l0
        cpu_impr = 100.0 * (c0 - c1) / c0
        rows.append(
            {
                "query": f"Q{query.query_id}",
                "change": "operators" if structure_changed else "partitions",
                "latency_improvement_pct": round(lat_impr, 1),
                "processing_time_improvement_pct": round(cpu_impr, 1),
            }
        )
        series["query"].append(f"Q{query.query_id}")
        series["latency_improvement_pct"].append(round(lat_impr, 1))
        series["cpu_improvement_pct"].append(round(cpu_impr, 1))

    improved = sum(1 for r in rows if r["latency_improvement_pct"] > 0)
    rows.append(
        {
            "query": "summary",
            "change": f"{len(changed)} changed",
            "latency_improvement_pct": f"{improved}/{len(rows)} improved",
            "processing_time_improvement_pct": "-",
        }
    )
    return ExperimentResult(
        experiment_id="fig20",
        title=f"TPC-H SF{scale_factor:g}: plan changes under Cleo",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=(
            "Shape: several queries change plans; most improve latency and "
            "processing time; occasional regression is expected (paper: Q17)."
        ),
    )
