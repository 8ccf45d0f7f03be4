"""SLO-driven resource allocation from learned cost models.

"Generating efficient combination of query plans and resources are also
relevant to the new breed of serverless computing ... the optimizer needs to
accurately estimate the cost of queries for given resources and explore
different resource combinations so that users do not end up over-paying for
their queries" (Section 7 of the paper; see also the Morpheus SLO use case
in Section 6.7).

The allocator answers the operational question directly: *given a latency
deadline, how few containers can this job run on?*  For each candidate
container budget it re-plans the job with the learned cost model under that
budget (so the plan itself adapts — narrower budgets may prefer different
physical operators and exchange placements) and predicts end-to-end latency
with :class:`~repro.applications.prediction.JobPerformancePredictor`.  The
decision is the cheapest budget whose prediction meets the deadline.

Budgets are swept geometrically, mirroring the paper's observation that the
relative change in partitions is what matters (Section 5.3): a step from 16
to 32 containers moves cost far more than 1200 to 1216.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.applications.prediction import JobPerformancePredictor
from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import ValidationError
from repro.core.predictor import CleoPredictor
from repro.optimizer.partition import AnalyticalStrategy
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.plan.logical import LogicalOp
from repro.plan.physical import PhysicalOp
from repro.serving.service import CleoService


@dataclass(frozen=True)
class AllocationPoint:
    """One point of the containers-versus-latency trade-off curve."""

    container_budget: int
    predicted_latency: float
    predicted_cpu_seconds: float
    plan: PhysicalOp

    @property
    def predicted_cpu_hours(self) -> float:
        return self.predicted_cpu_seconds / 3600.0


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of one allocation request."""

    deadline_seconds: float
    chosen: AllocationPoint | None
    curve: tuple[AllocationPoint, ...]

    @property
    def meets_deadline(self) -> bool:
        return self.chosen is not None

    @property
    def container_budget(self) -> int:
        """The granted budget; the largest probed budget when infeasible."""
        if self.chosen is not None:
            return self.chosen.container_budget
        return self.curve[-1].container_budget

    def describe(self) -> str:
        lines = [f"deadline: {self.deadline_seconds:.0f}s"]
        for point in self.curve:
            marker = (
                "<- chosen"
                if self.chosen is not None
                and point.container_budget == self.chosen.container_budget
                else ""
            )
            lines.append(
                f"  {point.container_budget:>5} containers: "
                f"{point.predicted_latency:8.1f}s predicted, "
                f"{point.predicted_cpu_hours:6.2f} cpu-h {marker}"
            )
        if self.chosen is None:
            lines.append("  (no probed budget meets the deadline)")
        return "\n".join(lines)


class ResourceAllocator:
    """Finds the fewest containers that keep a job within its deadline.

    Args:
        predictor: a :class:`~repro.serving.service.CleoService` (or bare
            trained models, which are wrapped in one) used both for planning
            and for latency prediction.
        estimator: compile-time cardinality estimator shared by planner and
            predictor.
        base_config: planner configuration to derive budgeted configs from;
            its ``max_partitions`` is the widest budget ever probed.
        budget_growth: geometric step between probed budgets (> 1).
    """

    def __init__(
        self,
        predictor: CleoService | CleoPredictor,
        estimator: CardinalityEstimator | None = None,
        base_config: PlannerConfig | None = None,
        budget_growth: float = 2.0,
    ) -> None:
        if budget_growth <= 1.0:
            raise ValidationError(f"budget_growth must be > 1, got {budget_growth}")
        self.service = CleoService.ensure(predictor)
        self.estimator = estimator or CardinalityEstimator()
        self.base_config = base_config or PlannerConfig(
            partition_strategy=AnalyticalStrategy()
        )
        self.budget_growth = budget_growth
        self.performance = JobPerformancePredictor(self.service, self.estimator)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def candidate_budgets(self, min_budget: int = 1) -> list[int]:
        """Geometric budget ladder up to the planner's ``max_partitions``."""
        if min_budget < 1:
            raise ValidationError(f"min_budget must be >= 1, got {min_budget}")
        budgets: list[int] = []
        budget = float(max(min_budget, 1))
        ceiling = self.base_config.max_partitions
        while int(budget) < ceiling:
            if not budgets or int(budget) != budgets[-1]:
                budgets.append(int(budget))
            budget *= self.budget_growth
        budgets.append(ceiling)
        return budgets

    def tradeoff_curve(
        self, logical: LogicalOp, budgets: list[int] | None = None
    ) -> tuple[AllocationPoint, ...]:
        """Plan + predict the job at each container budget."""
        budgets = budgets if budgets is not None else self.candidate_budgets()
        if not budgets:
            raise ValidationError("at least one budget is required")
        points: list[AllocationPoint] = []
        for budget in budgets:
            if budget < 1:
                raise ValidationError(f"budgets must be >= 1, got {budget}")
            plan = self._plan_under_budget(logical, budget)
            prediction = self.performance.predict(plan)
            points.append(
                AllocationPoint(
                    container_budget=budget,
                    predicted_latency=prediction.latency_seconds,
                    predicted_cpu_seconds=prediction.cpu_seconds,
                    plan=plan,
                )
            )
        return tuple(points)

    def allocate(
        self,
        logical: LogicalOp,
        deadline_seconds: float,
        budgets: list[int] | None = None,
    ) -> AllocationDecision:
        """The cheapest probed budget predicted to meet ``deadline_seconds``.

        When several feasible budgets exist the smallest wins; ties on
        budget cannot occur because budgets are distinct.  An infeasible
        deadline yields ``chosen=None`` with the full curve for diagnosis.
        """
        if deadline_seconds <= 0:
            raise ValidationError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        curve = self.tradeoff_curve(logical, budgets)
        feasible = [p for p in curve if p.predicted_latency <= deadline_seconds]
        chosen = min(feasible, key=lambda p: p.container_budget) if feasible else None
        return AllocationDecision(
            deadline_seconds=deadline_seconds, chosen=chosen, curve=curve
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _plan_under_budget(self, logical: LogicalOp, budget: int) -> PhysicalOp:
        """Re-plan with every partition knob capped at ``budget``."""
        config = replace(
            self.base_config,
            max_partitions=budget,
            default_partition_cap=min(self.base_config.default_partition_cap, budget),
        )
        planner = QueryPlanner(self.service.cost_model(), self.estimator, config)
        return planner.plan(logical).plan
