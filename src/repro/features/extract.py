"""Feature extraction from live physical operators.

Bridges the plan layer and the featurizer: build the :class:`FeatureInput`
of an operator as the optimizer sees it at costing time (estimated
cardinalities, current partition count).
"""

from __future__ import annotations

from repro.cardinality.estimator import CardinalityEstimator
from repro.features.featurizer import FeatureInput
from repro.plan.physical import PhysicalOp


def feature_input_for(
    op: PhysicalOp,
    estimator: CardinalityEstimator,
    partition_override: int | None = None,
) -> FeatureInput:
    """Compile-time features of one operator instance.

    Cardinalities are the *estimated* ones — the same statistics the default
    cost model consumes, which is the paper's fairness convention — while
    ``partition_override`` lets partition exploration re-featurize the
    operator at a candidate partition count without rebuilding the plan.

    O(1) in the size of the plan: the subtree statistics (``B``, ``IN``,
    ``CL``, ``D``) are reads of the operator's own
    :class:`~repro.plan.summary.SubtreeSummary`, and only ``P`` depends on
    the partition count.
    """
    summary = op.summary
    return FeatureInput(
        input_card=estimator.estimate_input(op),
        base_card=summary.base_card,
        output_card=estimator.estimate(op),
        avg_row_bytes=op.row_bytes,
        partition_count=float(partition_override or op.partition_count),
        input_enc=FeatureInput.encode_inputs(summary.inputs),
        params_enc=FeatureInput.encode_params(op.params),
        logical_count=float(summary.n_logical),
        depth=float(summary.depth),
    )
