"""Feature extraction from live plan nodes.

Bridges the plan layer and the featurizer: an operator's nine raw features
as the optimizer sees them at costing time (estimated cardinalities, current
partition count).  :func:`feature_row` is the one definition of that row;
pricing paths pack many of them into one
:meth:`~repro.features.table.FeatureTable.from_rows` table
(:func:`operator_table`, for live operators), and :func:`feature_input_for`
wraps one in a :class:`FeatureInput`.
"""

from __future__ import annotations

from typing import Sequence

from repro.cardinality.estimator import CardinalityEstimator
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import signed

_encode_inputs = FeatureInput.encode_inputs
_encode_params = FeatureInput.encode_params


def feature_row(
    node, input_card: float, output_card: float, partition_count: int
) -> tuple[float, ...]:
    """One operator's raw features, in
    :data:`~repro.features.featurizer.COLUMN_NAMES` order.

    ``node`` is any plan node carrying a
    :class:`~repro.plan.summary.SubtreeSummary` (a :class:`PhysicalOp`, or
    the skeleton planner's ``RNode``); the cardinalities are its estimates,
    wherever the caller keeps them.  O(1) in the size of the plan: the
    subtree statistics (``B``, ``IN``, ``CL``, ``D``) are reads of the
    node's own summary, and only ``P`` depends on the partition count.
    """
    summary = node.summary
    logical = node.logical
    return (
        input_card,
        summary.base_card,
        output_card,
        node.row_bytes,
        float(partition_count),
        _encode_inputs(summary.inputs),
        _encode_params(logical.params if logical is not None else ()),
        float(summary.n_logical),
        float(summary.depth),
    )


def operator_row(
    op: PhysicalOp,
    estimator: CardinalityEstimator,
    partition_override: int | None = None,
) -> tuple[float, ...]:
    """:func:`feature_row` of a live operator under ``estimator``.

    Cardinalities are the *estimated* ones — the same statistics the default
    cost model consumes, which is the paper's fairness convention — while
    ``partition_override`` lets partition exploration re-featurize the
    operator at a candidate partition count without rebuilding the plan.
    """
    return feature_row(
        op,
        estimator.estimate_input(op),
        estimator.estimate(op),
        partition_override or op.partition_count,
    )


def operator_table(
    ops: Sequence[PhysicalOp],
    estimator: CardinalityEstimator,
    partition_override: int | None = None,
) -> FeatureTable:
    """Live operators as one signature-bearing table, rows in ``ops`` order:
    :func:`operator_row` + :func:`~repro.plan.signatures.signed`, both O(1)
    reads of each operator's own summary, and no per-row object.  The one
    place the pricing paths turn operators into rows."""
    return FeatureTable.from_rows(
        [operator_row(op, estimator, partition_override) for op in ops],
        [signed(op).bundle for op in ops],
    )


def feature_input_for(
    op: PhysicalOp,
    estimator: CardinalityEstimator,
    partition_override: int | None = None,
) -> FeatureInput:
    """Compile-time features of one operator instance (:func:`operator_row`)."""
    return FeatureInput(*operator_row(op, estimator, partition_override))
