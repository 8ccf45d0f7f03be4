"""Cost model interface shared by heuristic and learned models.

A cost model prices the *exclusive* cost of a physical operator — its own
runtime contribution — given the optimizer's cardinality estimates; the total
plan cost combines exclusive costs bottom-up exactly like SCOPE's default
models do (Section 3.2).  Costs are in seconds of estimated latency.

Every cost model exposes the same three-method surface so consumers (the
planner, the serving layer, the applications) never special-case the model
family:

* :meth:`CostModel.operator_cost` — exclusive cost of one operator;
* :meth:`CostModel.plan_cost` — total cost of a plan tree;
* :meth:`CostModel.explain` — where a cost came from: which model kind and
  signature answered, or why a fallback tier was used instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.cardinality.estimator import CardinalityEstimator
from repro.plan.physical import PhysicalOp


@dataclass(frozen=True)
class CostExplanation:
    """Provenance of one operator cost.

    Attributes:
        source: which predictor produced the number — ``"combined"``, an
            individual model kind value (``"op_subgraph"``, ...),
            ``"heuristic"`` for the hand-crafted models, or ``"fallback"``
            for the trained global mean.
        model_kind: the most specific individual model kind covering the
            operator (``None`` when nothing covers it, or for heuristics).
        signature: the signature keying that model in the store (``None``
            when no model covers the operator, or for heuristics).
        cost: the predicted exclusive cost, in seconds.
        fallback_reason: why a more specific tier did not answer (``None``
            when the most specific tier covered the operator).
    """

    source: str
    model_kind: str | None
    signature: int | None
    cost: float
    fallback_reason: str | None = None

    def describe(self) -> str:
        parts = [f"{self.source}: {self.cost:.6g}s"]
        if self.model_kind is not None:
            parts.append(f"kind={self.model_kind}")
        if self.signature is not None:
            parts.append(f"signature={self.signature}")
        if self.fallback_reason is not None:
            parts.append(f"({self.fallback_reason})")
        return " ".join(parts)


@runtime_checkable
class CostModel(Protocol):
    """Anything that can price an operator, a plan, and explain itself."""

    def operator_cost(
        self,
        op: PhysicalOp,
        estimator: CardinalityEstimator,
        partition_override: int | None = None,
    ) -> float:
        """Exclusive cost of ``op``; ``partition_override`` re-prices the
        operator as if it ran with a different partition count (used by
        partition exploration) without rebuilding the plan."""
        ...

    def plan_cost(self, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
        """Total plan cost: the sum of exclusive operator costs."""
        ...

    def explain(
        self, op: PhysicalOp, estimator: CardinalityEstimator
    ) -> CostExplanation:
        """Cost of ``op`` plus the provenance of that number."""
        ...


class CostModelBase:
    """The shared surface of the heuristic models.

    A subclass supplies the formula, ``operator_cost_from_stats(op_type,
    estimated_input, estimated_output, input_row_bytes, partition_count)``;
    :meth:`operator_cost` feeds it the estimator's statistics, and
    ``plan_cost`` / ``explain`` follow.  Learned models override
    :meth:`explain` with real provenance.
    """

    @property
    def supports_replay_costing(self) -> bool:
        """Whether the skeleton replay fast path can price for this model.

        The template-skeleton replay (``repro.optimizer.skeleton``) never
        builds :class:`PhysicalOp` trees during search: it hands the model's
        own ``operator_cost_from_stats`` the statistics :meth:`operator_cost`
        would have read off the estimator, so it prices exactly as long as
        :meth:`operator_cost` is this one.  A subclass that retunes the
        constants or the formula stays on the replay; one that overrides
        :meth:`operator_cost` opts out, which routes planning back to the
        ``PhysicalOp`` search.  Learned models answer for themselves
        (:class:`~repro.core.cost_model.CleoCostModel`).
        """
        return (
            hasattr(self, "operator_cost_from_stats")
            and type(self).operator_cost is CostModelBase.operator_cost
        )

    def operator_cost(
        self,
        op: PhysicalOp,
        estimator: CardinalityEstimator,
        partition_override: int | None = None,
    ) -> float:
        return self.operator_cost_from_stats(
            op.op_type,
            estimator.estimate_input(op),
            estimator.estimate(op),
            op.children[0].row_bytes if op.children else op.row_bytes,
            partition_override or op.partition_count,
        )

    def plan_cost(self, root: PhysicalOp, estimator: CardinalityEstimator) -> float:
        return float(sum(self.operator_cost(op, estimator) for op in root.walk()))

    def explain(
        self, op: PhysicalOp, estimator: CardinalityEstimator
    ) -> CostExplanation:
        return CostExplanation(
            source="heuristic",
            model_kind=None,
            signature=None,
            cost=self.operator_cost(op, estimator),
            fallback_reason=None,
        )


def plan_cost(
    model: CostModel, root: PhysicalOp, estimator: CardinalityEstimator
) -> float:
    """Total plan cost: sum of exclusive operator costs over the tree.

    Prefers the model's own :meth:`~CostModel.plan_cost` (learned models
    batch it); falls back to a plain sum for minimal duck-typed models.
    """
    method = getattr(model, "plan_cost", None)
    if callable(method):
        return float(method(root, estimator))
    return float(sum(model.operator_cost(op, estimator) for op in root.walk()))
