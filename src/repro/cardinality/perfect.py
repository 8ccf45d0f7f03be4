"""Perfect-cardinality feedback: the ideal any estimator could achieve.

Figure 1 of the paper feeds actual runtime cardinalities back into the cost
models to show that even *perfect* cardinalities leave a wide cost gap.  This
estimator returns the true cardinality for every operator; it is used by the
fig1 experiment and anywhere a "best case cardinality" ablation is needed.
"""

from __future__ import annotations

from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
from repro.plan.physical import PhysicalOp


class PerfectCardinalityEstimator(CardinalityEstimator):
    """A cardinality oracle: estimates equal true cardinalities."""

    def __init__(self) -> None:
        super().__init__(EstimatorConfig(sigma_scale=0.0))

    def estimate(self, op: PhysicalOp) -> float:
        return op.true_card
