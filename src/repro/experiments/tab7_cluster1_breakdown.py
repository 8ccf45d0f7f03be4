"""Table 7: per-model accuracy and coverage, all jobs vs ad-hoc (cluster 1).

Paper numbers (cluster 1): e.g. Op-Subgraph 0.86/9%/56%/65% on all jobs vs
0.81/14%/57%/36% on ad-hoc jobs — ad-hoc accuracy drops only slightly, and
even ad-hoc jobs have substantial subgraph-model coverage because they share
subexpressions with recurring jobs.
"""

from __future__ import annotations

from repro.common.stats import median_error_pct, pearson, percentile_error_pct
from repro.core.robustness import evaluate_predictor_on_log, evaluate_store_on_log
from repro.cost.default_model import DefaultCostModel
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle

PAPER = {
    "all_jobs": {
        "Default": (0.12, 182.0, 100.0),
        "op_subgraph": (0.86, 9.0, 65.0),
        "op_subgraph_approx": (0.85, 12.0, 82.0),
        "op_input": (0.81, 23.0, 91.0),
        "operator": (0.76, 33.0, 100.0),
        "combined": (0.79, 21.0, 100.0),
    },
    "adhoc_jobs": {
        "Default": (0.09, 204.0, 100.0),
        "op_subgraph": (0.81, 14.0, 36.0),
        "op_subgraph_approx": (0.80, 16.0, 64.0),
        "op_input": (0.77, 26.0, 79.0),
        "operator": (0.73, 42.0, 100.0),
        "combined": (0.73, 29.0, 100.0),
    },
}


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster1", scale=scale, seed=seed)
    predictor = bundle.predictor()

    rows = []
    for subset, adhoc in (("all", None), ("adhoc", True)):
        test = bundle.test_log()
        if adhoc is not None:
            test = test.filter(adhoc=adhoc)

        estimator = bundle.fresh_estimator()
        model = DefaultCostModel()
        costs, actuals = [], []
        for job in test:
            plan = bundle.runner.plans[job.job_id]
            for op, record in zip(plan.walk(), job.operators):
                costs.append(model.operator_cost(op, estimator))
                actuals.append(record.actual_latency)
        rows.append(
            {
                "jobs": subset,
                "model": "Default",
                "correlation": round(pearson(costs, actuals), 3),
                "median_error_pct": round(median_error_pct(costs, actuals), 1),
                "p95_error_pct": round(percentile_error_pct(costs, actuals, 95), 1),
                "coverage_pct": 100.0,
            }
        )
        for kind, quality in evaluate_store_on_log(predictor.store, test).items():
            row = quality.row()
            row = {"jobs": subset, **row}
            del row["n"]
            rows.append(row)
        combined = evaluate_predictor_on_log(predictor, test).row()
        combined = {"jobs": subset, **combined}
        del combined["n"]
        rows.append(combined)

    return ExperimentResult(
        experiment_id="tab7",
        title="Cluster 1: per-model accuracy/coverage, all vs ad-hoc jobs",
        rows=rows,
        paper=PAPER,
        notes=(
            "Shape: ad-hoc subgraph coverage well below all-jobs coverage, "
            "accuracy only slightly worse; operator/combined cover both fully."
        ),
    )
