"""Regression-avoidance techniques from Section 6.7.

The paper lists several practical ways to keep learned cost models from
regressing production jobs; two are implemented here:

* **Dual planning** ("optimize a query twice, with and without Cleo, and
  select the plan with the better overall latency as predicted by the
  learned models, since they are highly accurate and correlated"):
  :class:`DualPlanner`.
* **Model quarantine** ("monitor the performance of jobs ... isolate models
  that lead to performance regression and discard them from the feedback"):
  :class:`ModelQuarantine` compares predictions against observed runtimes
  and removes persistently wrong templates from the store, letting them
  self-correct on the next training cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.core.combined import covered_tiers
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor
from repro.cost.interface import CostModel, plan_cost
from repro.execution.runtime_log import RunLog
from repro.plan.logical import LogicalOp

if TYPE_CHECKING:  # the optimizer imports core; avoid the import cycle
    from repro.optimizer.planner import PlannedJob, QueryPlanner


@dataclass
class DualPlanOutcome:
    """Result of planning a query under both optimizers."""

    chosen: PlannedJob
    default_plan: PlannedJob
    cleo_plan: PlannedJob
    used_cleo: bool


class DualPlanner:
    """Optimize twice and keep the plan the learned models prefer.

    Both optimizations take only milliseconds-scale planner time (the
    paper's point), and the learned models act as the judge because they are
    the accurate, runtime-correlated scorer.
    """

    def __init__(
        self,
        default_planner: QueryPlanner,
        cleo_planner: QueryPlanner,
        judge: CostModel,
        estimator: CardinalityEstimator,
    ) -> None:
        self.default_planner = default_planner
        self.cleo_planner = cleo_planner
        self.judge = judge
        self.estimator = estimator

    def plan(self, logical_root: LogicalOp) -> DualPlanOutcome:
        default_job = self.default_planner.plan(logical_root)
        cleo_job = self.cleo_planner.plan(logical_root)
        default_cost = plan_cost(self.judge, default_job.plan, self.estimator)
        cleo_cost = plan_cost(self.judge, cleo_job.plan, self.estimator)
        use_cleo = cleo_cost <= default_cost
        return DualPlanOutcome(
            chosen=cleo_job if use_cleo else default_job,
            default_plan=default_job,
            cleo_plan=cleo_job,
            used_cleo=use_cleo,
        )


@dataclass
class QuarantineReport:
    """What the quarantine pass removed."""

    removed: dict[ModelKind, int] = field(default_factory=dict)
    inspected: int = 0

    @property
    def total_removed(self) -> int:
        return sum(self.removed.values())


class ModelQuarantine:
    """Discard individual models whose predictions regress against reality.

    A model is quarantined when, over at least ``min_observations`` test
    records, its median |log prediction ratio| exceeds ``tolerance_factor``
    (e.g. 4.0 means "persistently off by more than 4x").  Removal is safe:
    the fallback chain and the combined model's coverage flags degrade
    gracefully, and the next training cycle can re-learn the template.

    Every removal is also recorded in an ordered **ledger** of
    ``(kind, signature)`` pairs, so quarantine decisions survive a process
    restart: persist the ledger (see :func:`repro.core.serialization.
    quarantine_to_dict`), then :meth:`replay` it over a freshly loaded
    store.  Replay is idempotent — already-absent signatures are no-ops —
    and a retrained model re-adding a ledgered signature is dropped again
    on the next replay, which is the conservative posture until
    :meth:`clear_ledger` forgives it.
    """

    def __init__(self, tolerance_factor: float = 4.0, min_observations: int = 5) -> None:
        if tolerance_factor <= 1.0:
            raise ValueError("tolerance_factor must exceed 1.0")
        self.tolerance_factor = tolerance_factor
        self.min_observations = min_observations
        #: Ordered set of quarantined (kind, signature) pairs.
        self._ledger: dict[tuple[ModelKind, int], None] = {}

    # ------------------------------------------------------------------ #
    # Durable ledger
    # ------------------------------------------------------------------ #

    def ledger(self) -> tuple[tuple[ModelKind, int], ...]:
        """Every quarantined (kind, signature), in quarantine order."""
        return tuple(self._ledger)

    def record(self, kind: ModelKind, signature: int) -> None:
        """Ledger one quarantine decision (idempotent)."""
        self._ledger[(kind, int(signature))] = None

    def restore_ledger(
        self, entries: "list[tuple[ModelKind, int]] | tuple[tuple[ModelKind, int], ...]"
    ) -> None:
        """Replace the ledger with persisted entries (restart path)."""
        self._ledger = {(kind, int(signature)): None for kind, signature in entries}

    def clear_ledger(self) -> None:
        """Forgive every ledgered signature (e.g. after a clean retrain)."""
        self._ledger = {}

    def replay(self, store: ModelStore) -> int:
        """Re-apply the ledger to a store; returns how many were removed.

        Safe to run on every restart: removals of absent signatures are
        idempotent no-ops (:meth:`ModelStore.remove` returns ``False``).
        """
        removed = 0
        for kind, signature in self._ledger:
            if store.remove(kind, signature):
                removed += 1
        return removed

    def audit(self, store: ModelStore, log: RunLog) -> QuarantineReport:
        """Remove persistently wrong models, returning what was dropped.

        One :func:`~repro.core.combined.covered_tiers` pass prices every
        covered ``(record, kind)`` pair of the log.  Only the rows the
        trainer's data-quality gate keeps
        (:meth:`~repro.features.table.FeatureTable.sanitize_mask`) are
        scored: a NaN latency would make its model's median NaN, and a NaN
        median never exceeds the threshold.  Models are judged, and removed,
        in the order their first scored ``(record, kind)`` pair appears.
        """
        table = log.to_table()
        masks, predictions, _ = covered_tiers(store, table)
        keep, _ = table.sanitize_mask()
        at, tier = np.nonzero(masks & keep[:, None])
        ratios = np.abs(
            np.log((predictions[at, tier] + 1e-3) / (table.latency[at] + 1e-3))
        )
        by_model: dict[tuple[ModelKind, int], list[float]] = {}
        for k, signature, ratio in zip(
            tier.tolist(), table.signatures[at, tier].tolist(), ratios.tolist()
        ):
            by_model.setdefault((SPECIFICITY_ORDER[k], signature), []).append(ratio)

        report = QuarantineReport(inspected=len(table))
        threshold = float(np.log(self.tolerance_factor))
        for (kind, signature), values in by_model.items():
            if len(values) < self.min_observations:
                continue
            if float(np.median(values)) > threshold:
                store.remove(kind, signature)
                self.record(kind, signature)
                report.removed[kind] = report.removed.get(kind, 0) + 1
        return report

    def quarantine(self, store: ModelStore, kind: ModelKind, signature: int) -> bool:
        """Remove one model caught misbehaving at the serving boundary.

        The statistical :meth:`audit` needs a log of observations; the
        serving tier instead catches red-handed offenders (non-finite or
        negative predictions) and removes them directly.  Idempotent:
        returns ``False`` when the model is already gone, so repeated
        repair passes never double-count a removal.
        """
        if store.get(kind, signature) is None:
            return False
        store.remove(kind, signature)
        self.record(kind, signature)
        return True

    def audit_predictor(self, predictor: CleoPredictor, log: RunLog) -> QuarantineReport:
        return self.audit(predictor.store, log)
