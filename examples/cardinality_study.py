"""Why fixing cardinalities is not enough (Section 6.4 of the paper).

Compares four configurations on the same workload: the default cost model,
the default model fed perfect cardinalities, the default model fed
CardLearner's learned cardinalities, and Cleo — showing that cost estimation
errors in big data systems survive perfect cardinalities.

Run:  python examples/cardinality_study.py
"""

from __future__ import annotations

import numpy as np

from repro.cardinality import CardinalityEstimator, CardLearner, PerfectCardinalityEstimator
from repro.common.stats import median_error_pct, pearson
from repro.cost import DefaultCostModel
from repro.execution.hardware import ClusterSpec
from repro.serving import CleoService
from repro.workload import ClusterWorkloadConfig, WorkloadGenerator, WorkloadRunner


def main() -> None:
    cluster = ClusterSpec(name="democluster")
    generator = WorkloadGenerator(
        ClusterWorkloadConfig(
            cluster_name="democluster", n_tables=8, n_fragments=14, n_templates=24, seed=11
        )
    )
    runner = WorkloadRunner(cluster=cluster, seed=11, keep_plans=True)
    log = runner.run_days(generator, days=range(1, 4))
    service = CleoService.train(log, individual_days=[1, 2], combined_days=[2])

    # CardLearner trains on the executed plans of the training days.
    card_learner = CardLearner(base=CardinalityEstimator())
    for job in log.filter(days=[1, 2]):
        card_learner.observe_plan(runner.plans[job.job_id])
    print(f"CardLearner fitted {card_learner.fit()} per-template Poisson models")

    default = DefaultCostModel()
    test = log.filter(days=[3])
    actuals = np.array([r.actual_latency for r in test.operator_records()])

    def default_costs(estimator) -> np.ndarray:
        costs = []
        for job in test:
            plan = runner.plans[job.job_id]
            for op in plan.walk():
                costs.append(default.operator_cost(op, estimator))
        return np.array(costs)

    cleo_costs = service.predict_records(test.operator_records())

    rows = [
        ("default cost model", default_costs(CardinalityEstimator())),
        ("default + CardLearner cards", default_costs(card_learner)),
        ("default + PERFECT cards", default_costs(PerfectCardinalityEstimator())),
        ("Cleo (learned costs)", cleo_costs),
    ]
    print(f"\n{'configuration':<30} {'pearson':>8} {'median error':>13}")
    for name, costs in rows:
        print(
            f"{name:<30} {pearson(costs, actuals):8.3f} "
            f"{median_error_pct(costs, actuals):12.1f}%"
        )
    print(
        "\nconclusion: even perfect cardinalities leave a wide cost gap; "
        "the cost model itself must be learned."
    )


if __name__ == "__main__":
    main()
