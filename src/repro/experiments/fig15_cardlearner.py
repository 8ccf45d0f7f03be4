"""Figure 15 / Section 6.4: Cleo vs CardLearner.

CardLearner fixes cardinalities (Poisson regression per template) but keeps
the default cost model; the paper finds it barely moves cost accuracy
(median error 236% -> 211%, correlation ~0.01-0.04) while Cleo reaches 18%
(13% with CardLearner's cardinalities) and 0.84-0.86 correlation.  The
conclusion: fixing cardinalities alone cannot fix big-data cost models.
"""

from __future__ import annotations

import numpy as np

from repro.cardinality.cardlearner import CardLearner
from repro.common.stats import Cdf, error_ratio, median_error_pct, pearson
from repro.core.robustness import score_table
from repro.cost.default_model import DefaultCostModel
from repro.experiments.harness import ExperimentResult
from repro.experiments.shared import get_bundle
from repro.features.extract import feature_input_for
from repro.features.table import FeatureTable

PAPER = {
    "default": {"median_error_pct": 236.0},
    "default+cardlearner": {"median_error_pct": 211.0, "correlation": 0.01},
    "cleo": {"median_error_pct": 18.0, "correlation": 0.84},
    "cleo+cardlearner": {"median_error_pct": 13.0, "correlation": 0.86},
}


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = get_bundle("cluster4", scale=scale, seed=seed)
    predictor = bundle.predictor()
    test = bundle.test_log()

    # Train CardLearner on the training days' executed plans.
    card_learner = CardLearner(base=bundle.fresh_estimator())
    for job in bundle.log.filter(days=[1, 2]):
        plan = bundle.runner.plans[job.job_id]
        card_learner.observe_plan(plan)
    card_learner.fit()

    default_model = DefaultCostModel()
    series: dict[str, list] = {"cdf_grid": list(Cdf.of([1.0]).grid)}
    rows = []

    def evaluate(name: str, costs: np.ndarray, actuals: np.ndarray) -> None:
        rows.append(
            {
                "configuration": name,
                "correlation": round(pearson(costs, actuals), 3),
                "median_error_pct": round(median_error_pct(costs, actuals), 1),
                "paper": str(PAPER.get(name, {})),
            }
        )
        series[f"cdf_{name}"] = list(Cdf.of(error_ratio(costs, actuals)).fractions)

    costs, actuals = bundle.baseline_costs(default_model)
    evaluate("default", costs, actuals)
    costs_cl, _ = bundle.baseline_costs(default_model, estimator=card_learner)
    evaluate("default+cardlearner", costs_cl, actuals)

    cleo_costs = score_table(predictor, test.to_table())
    evaluate("cleo", cleo_costs, actuals)

    # Cleo consuming CardLearner's cardinalities: re-featurize test operators
    # with the learned estimates before predicting.
    inputs, bundles = [], []
    for job in test:
        plan = bundle.runner.plans[job.job_id]
        for op, record in zip(plan.walk(), job.operators):
            inputs.append(feature_input_for(op, card_learner))
            bundles.append(record.signatures)
    cleo_cl_costs = score_table(predictor, FeatureTable.from_inputs(inputs, bundles))
    evaluate("cleo+cardlearner", cleo_cl_costs, actuals)

    return ExperimentResult(
        experiment_id="fig15",
        title="Cleo vs CardLearner (learned cardinalities, default costs)",
        rows=rows,
        series=series,
        paper=PAPER,
        notes=(
            "CardLearner should barely improve the default cost model while "
            "Cleo improves both accuracy and correlation by an order of magnitude."
        ),
    )
