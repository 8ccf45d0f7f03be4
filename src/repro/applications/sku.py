"""Machine-SKU advisor: extending resource-aware planning beyond partitions.

Section 5.2 of the paper notes that its resource-aware abstractions are
"general enough to incorporate additional resources such as memory sizes,
number of cores, VM instance types, and other infrastructure level
decisions".  This module takes up the VM-instance-type case: given models
trained on a reference cluster, which machine SKU should a job run on to
meet a deadline at the lowest dollar cost?

The scaling assumption is stated explicitly: compute time scales inversely
with a SKU's relative speed factor, while the fixed per-stage scheduling
charge does not — exactly the structure of this reproduction's ground
truth (``latency = work / speed``), and a standard first-order model for
real fleets.  A plan's operators are priced once; each SKU estimate scales
that cost vector and re-rolls it through the stage DAG (so critical paths
may shift), rather than naively scaling the job total.

Dollar cost is billed the serverless way the paper's Section 7 sketches:
container-hours times the SKU's hourly price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.applications.prediction import JobPerformancePredictor
from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import ValidationError
from repro.core.predictor import CleoPredictor
from repro.execution.trace import Timeline, timeline
from repro.plan.physical import PhysicalOp
from repro.serving.service import CleoService


@dataclass(frozen=True)
class MachineSku:
    """One purchasable machine flavour."""

    name: str
    speed_factor: float
    price_per_container_hour: float

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValidationError(f"{self.name}: speed_factor must be positive")
        if self.price_per_container_hour < 0:
            raise ValidationError(f"{self.name}: price must be >= 0")


@dataclass(frozen=True)
class SkuEstimate:
    """Predicted outcome of running one job on one SKU."""

    sku: MachineSku
    prediction: Timeline

    @property
    def latency_seconds(self) -> float:
        return self.prediction.latency_seconds

    @property
    def cpu_seconds(self) -> float:
        return self.prediction.cpu_seconds

    @property
    def dollar_cost(self) -> float:
        return self.cpu_seconds / 3600.0 * self.sku.price_per_container_hour

    def dominates(self, other: "SkuEstimate") -> bool:
        """Strictly better on one axis, no worse on the other."""
        return (
            self.latency_seconds <= other.latency_seconds
            and self.dollar_cost <= other.dollar_cost
            and (
                self.latency_seconds < other.latency_seconds
                or self.dollar_cost < other.dollar_cost
            )
        )


@dataclass(frozen=True)
class SkuRecommendation:
    """Outcome of one advisory request."""

    deadline_seconds: float | None
    chosen: SkuEstimate | None
    estimates: tuple[SkuEstimate, ...]

    @property
    def pareto_frontier(self) -> tuple[SkuEstimate, ...]:
        """Non-dominated (latency, cost) estimates, fastest first."""
        frontier = [
            estimate
            for estimate in self.estimates
            if not any(other.dominates(estimate) for other in self.estimates)
        ]
        return tuple(sorted(frontier, key=lambda e: e.latency_seconds))

    def describe(self) -> str:
        lines = []
        if self.deadline_seconds is not None:
            lines.append(f"deadline: {self.deadline_seconds:.0f}s")
        for estimate in sorted(self.estimates, key=lambda e: e.latency_seconds):
            marker = (
                "<- chosen"
                if self.chosen is not None and estimate.sku.name == self.chosen.sku.name
                else ""
            )
            lines.append(
                f"  {estimate.sku.name:<14} {estimate.latency_seconds:8.1f}s  "
                f"${estimate.dollar_cost:8.4f} {marker}"
            )
        if self.chosen is None:
            lines.append("  (no SKU meets the deadline)")
        return "\n".join(lines)


class SkuAdvisor:
    """Recommends machine SKUs using the learned cost models.

    Args:
        predictor: models trained on the reference cluster.
        estimator: compile-time statistics source.
        reference_speed: the speed factor of the cluster the models were
            trained on (its logs priced operators at this speed).

    The per-stage start-up charge is identical on every SKU (container
    acquisition does not speed up with cores).
    """

    def __init__(
        self,
        predictor: CleoService | CleoPredictor,
        estimator: CardinalityEstimator | None = None,
        reference_speed: float = 1.0,
    ) -> None:
        if reference_speed <= 0:
            raise ValidationError("reference_speed must be positive")
        self.performance = JobPerformancePredictor(predictor, estimator)
        self.reference_speed = reference_speed

    def estimate(self, plan: PhysicalOp, sku: MachineSku) -> SkuEstimate:
        """Predicted latency/CPU/cost of running ``plan`` on ``sku``."""
        return self._estimate(plan, self.performance.operator_seconds(plan), sku)

    def _estimate(
        self, plan: PhysicalOp, costs: np.ndarray, sku: MachineSku
    ) -> SkuEstimate:
        """``plan`` on ``sku`` from its reference-speed operator ``costs``."""
        scale = self.reference_speed / sku.speed_factor
        return SkuEstimate(sku=sku, prediction=timeline(plan, (costs * scale).tolist()))

    def recommend(
        self,
        plan: PhysicalOp,
        skus: list[MachineSku],
        deadline_seconds: float | None = None,
    ) -> SkuRecommendation:
        """Cheapest SKU meeting the deadline; fastest when none does.

        Without a deadline, the cheapest SKU overall is chosen (ties broken
        by latency).
        """
        if not skus:
            raise ValidationError("at least one SKU is required")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValidationError("deadline_seconds must be positive")
        costs = self.performance.operator_seconds(plan)
        estimates = tuple(self._estimate(plan, costs, sku) for sku in skus)
        if deadline_seconds is None:
            chosen = min(estimates, key=lambda e: (e.dollar_cost, e.latency_seconds))
        else:
            feasible = [e for e in estimates if e.latency_seconds <= deadline_seconds]
            chosen = (
                min(feasible, key=lambda e: (e.dollar_cost, e.latency_seconds))
                if feasible
                else None
            )
        return SkuRecommendation(
            deadline_seconds=deadline_seconds, chosen=chosen, estimates=estimates
        )
