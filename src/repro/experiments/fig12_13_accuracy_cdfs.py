"""Figures 12-13: accuracy CDFs per cluster, all jobs and ad-hoc only.

Train on days 1-2, test on day 3, per cluster: CDFs of estimated/actual for
each learned model and the default model.  Figure 12 covers all jobs;
Figure 13 restricts to ad-hoc jobs, where coverage drops but accuracy stays
close (ad-hoc jobs still share subexpressions, and the operator/combined
models capture system behaviour regardless of recurrence).
"""

from __future__ import annotations

import numpy as np

from repro.common.stats import Cdf, error_ratio
from repro.core.config import ModelKind
from repro.core.robustness import score_table, store_predictions_by_kind
from repro.cost.default_model import DefaultCostModel
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_all_cluster_bundles

PAPER = {
    "shape": (
        "learned CDFs hug ratio=1 on every cluster; default spans 1e-2..1e3; "
        "ad-hoc accuracy slightly below all-jobs accuracy"
    )
}


def run(scale: str = "small", seed: int = 0, adhoc_only: bool = False) -> ExperimentResult:
    bundles = get_all_cluster_bundles(scale=scale, seed=seed)
    rows = []
    series: dict[str, list] = {"cdf_grid": list(Cdf.of([1.0]).grid)}

    for name, bundle in bundles.items():
        predictor = bundle.predictor()
        test = bundle.test_log()
        if adhoc_only:
            test = test.filter(adhoc=True)
        records = list(test.operator_records())
        if not records:
            continue
        table = test.to_table()
        actuals = table.latency

        # Columnar path: one pass over the tier index prices every kind
        # instead of a per-record model lookup + predict loop.
        by_kind = store_predictions_by_kind(predictor.store, test)
        for kind in ModelKind:
            mask, predictions = by_kind[kind]
            if mask.any():
                ratios = error_ratio(predictions[mask], actuals[mask])
                series[f"cdf_{name}_{kind.value}"] = list(Cdf.of(ratios).fractions)
                rows.append(
                    {
                        "cluster": name,
                        "model": kind.value,
                        "central_mass_0.5_2x": round(Cdf.of(ratios).central_mass(), 3),
                        "coverage_pct": round(100.0 * int(mask.sum()) / len(records), 1),
                    }
                )

        combined = score_table(predictor, table)
        ratios = error_ratio(combined, actuals)
        series[f"cdf_{name}_combined"] = list(Cdf.of(ratios).fractions)
        rows.append(
            {
                "cluster": name,
                "model": "combined",
                "central_mass_0.5_2x": round(Cdf.of(ratios).central_mass(), 3),
                "coverage_pct": 100.0,
            }
        )

        estimator = bundle.fresh_estimator()
        model = DefaultCostModel()
        default_costs, default_acts = [], []
        for job in test:
            plan = bundle.runner.plans[job.job_id]
            for op, record in zip(plan.walk(), job.operators):
                default_costs.append(model.operator_cost(op, estimator))
                default_acts.append(record.actual_latency)
        ratios = error_ratio(np.array(default_costs), np.array(default_acts))
        series[f"cdf_{name}_default"] = list(Cdf.of(ratios).fractions)
        rows.append(
            {
                "cluster": name,
                "model": "default",
                "central_mass_0.5_2x": round(Cdf.of(ratios).central_mass(), 3),
                "coverage_pct": 100.0,
            }
        )

    which = "fig13" if adhoc_only else "fig12"
    return ExperimentResult(
        experiment_id=which,
        title=(
            "Accuracy CDFs on "
            + ("ad-hoc jobs only" if adhoc_only else "all jobs")
            + " across four clusters"
        ),
        rows=rows,
        series=series,
        paper=PAPER,
    )
