"""Quickstart: train, serve, and query cost models through ``CleoService``.

This walks the full Cleo loop on a small synthetic cluster:

1. generate a recurring-job workload (3 days);
2. plan + execute it with the default optimizer (this is "production");
3. train the learned cost models from the run logs with one
   ``CleoService.train`` call (the feedback loop);
4. serve the held-out day through the batched prediction path and compare
   with the default heuristic model;
5. explain a few predictions and round-trip the service through a model
   file (the paper's "models can be served from a text file").

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.cardinality import CardinalityEstimator
from repro.common.stats import median_error_pct, pearson
from repro.core import evaluate_store_on_log
from repro.cost import DefaultCostModel
from repro.execution.hardware import ClusterSpec
from repro.serving import CleoService
from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner


def main() -> None:
    # 1. A cluster and its workload: recurring templates over drifting inputs.
    cluster = ClusterSpec(name="democluster")
    config = ClusterWorkloadConfig(
        cluster_name="democluster", n_tables=10, n_fragments=18, n_templates=30, seed=42
    )
    generator = WorkloadGenerator(config)

    # 2. "Production": plan with the default cost model, execute, log.
    runner = WorkloadRunner(cluster=cluster, seed=42, keep_plans=True)
    log = runner.run_days(generator, days=range(1, 4))
    print(f"executed {len(log)} jobs / {log.operator_count} operators over 3 days")

    # 3. The feedback loop, behind the serving façade: individual models on
    #    days 1-2, the combined meta-model on day 2.
    service = CleoService.train(log, individual_days=[1, 2], combined_days=[2])
    print(f"trained {service.model_count} models "
          f"({service.memory_bytes / 1024:.0f} KiB in memory)")

    # 4. Serve the held-out day 3 through the batched path.
    test = log.filter(days=[3])
    records = list(test.operator_records())
    predicted = service.predict_records(records)
    actual = [r.actual_latency for r in records]
    stats = service.stats()
    print(f"\nserved {len(records)} operators with {stats.model_calls} vectorized "
          f"model calls ({stats.in_batch_reuses} deduplicated in-batch)")
    print("\nper-model accuracy and coverage on day 3:")
    for kind, quality in evaluate_store_on_log(service.store, test).items():
        print(f"  {quality.name:<20} corr={quality.pearson:5.2f} "
              f"median_err={quality.median_error_pct:6.1f}%  "
              f"coverage={quality.coverage_pct:5.1f}%")
    print(f"  {'combined':<20} corr={pearson(list(predicted), actual):5.2f} "
          f"median_err={median_error_pct(list(predicted), actual):6.1f}%  "
          f"coverage=100.0%")

    # Baseline: the default cost model over the same operators.
    default = DefaultCostModel()
    estimator = CardinalityEstimator()
    costs, actuals = [], []
    for job in test:
        plan = runner.plans[job.job_id]
        for op, record in zip(plan.walk(), job.operators):
            costs.append(default.operator_cost(op, estimator))
            actuals.append(record.actual_latency)
    print(f"  {'default (heuristic)':<20} corr={pearson(costs, actuals):5.2f} "
          f"median_err={median_error_pct(costs, actuals):6.1f}%  coverage=100.0%")

    # 5. Explanations and the model-file round trip.
    print("\nthree predictions explained:")
    for record in records[:3]:
        explanation = service.explain(record.features, record.signatures)
        print(f"  {record.op_type:<16} {explanation.describe()}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cleo_models.json"
        service.save(path)
        reloaded = CleoService.load(path)
        same = float(reloaded.predict_records(records[:50]).sum())
        print(f"\nmodel file round trip: {path.stat().st_size / 1024:.0f} KiB, "
              f"first-50 cost sum {same:.3f} (identical={same == float(predicted[:50].sum())})")


if __name__ == "__main__":
    main()
