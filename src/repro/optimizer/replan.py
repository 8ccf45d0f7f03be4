"""Fleet-scale recurring-job replanning through the packed runtime.

A production cluster re-optimizes its recurring jobs in bulk — nightly, or
whenever a model bank refresh lands (the paper's monthly retraining cadence,
Section 6.3).  Consulting the learned models one costing frontier at a time
is almost all per-call overhead (a handful of rows per router call against a
packed runtime that prices hundreds of thousands of rows a second), so this
driver prices the fleet in **waves across templates**:

* every job gets its own resumable search
  (:class:`~repro.optimizer.skeleton.SkeletonPlanner`, skeleton-memoized per
  ``(template_id, day)``), whatever its template;
* a search runs until it *suspends*: frames that compare candidates need the
  job's pending deferred-cost ledger priced first, sibling frames together;
* each wave advances every open search to its next suspension and prices
  all their pending rows in ONE
  :meth:`~repro.core.cost_model.CleoCostModel.price_inputs` call, so a
  :meth:`FleetReplanner.replan_jobs` makes one pricing call per level of its
  deepest job's critical path (under ten), whatever the fleet size;
* the plan totals of the whole fleet go through one
  :meth:`~repro.core.cost_model.CleoCostModel.price_plans` call — or, with
  a partition strategy, the exploration, the guard and the totals of every
  64 winners through one
  :meth:`~repro.core.cost_model.CleoCostModel.price_stage_sweep` grid.

Waves are exact.  A row may be priced earlier than a sequential search would
price it (another job's, or a sibling frame's, suspension triggers the wave),
but predictions are batch-invariant and ledger indices are assigned when a
candidate is costed — so candidate generation, enforcement, tie-breaking and
floating-point arithmetic are unchanged.  Plans, costs and (with the
prediction cache disabled, the optimizer-experiment default) lookup
accounting are bitwise identical to a per-job
:class:`~repro.optimizer.planner.QueryPlanner` loop, in any job order; with
a shared prediction cache, values are still identical but in-batch reuse
accounting can differ (the PR-5 precedent for cross-plan batches).

Heuristic cost models never suspend: the same driver finishes each of their
searches in its first wave.  The learned reference schedule
(``batched=False``) is opaque to the replay, so it is rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cardinality.estimator import CardinalityEstimator
from repro.optimizer.planner import PlannedJob, PlannerConfig
from repro.optimizer.skeleton import SkeletonPlanner, SkeletonPlannerStats
from repro.plan.logical import LogicalOp


@dataclass(frozen=True)
class ReplanJob:
    """One recurring-job instance in a fleet replanning request.

    ``jitter_salt`` defaults to ``job_id``, matching the workload runner's
    per-job salting convention.
    """

    job_id: str
    template_id: str
    day: int
    logical: LogicalOp
    jitter_salt: str | None = None

    @property
    def salt(self) -> str:
        return self.job_id if self.jitter_salt is None else self.jitter_salt


class FleetReplanner:
    """Replans a fleet of recurring jobs, pricing it in cross-template waves.

    One instance wraps one :class:`SkeletonPlanner` (and thus one cost
    model / estimator / config triple); the skeleton cache and telemetry
    persist across :meth:`replan_jobs` calls, so a nightly driver reuses
    template analyses from the previous night.
    """

    def __init__(
        self,
        cost_model,
        estimator: CardinalityEstimator | None = None,
        config: PlannerConfig | None = None,
    ) -> None:
        self.planner = SkeletonPlanner(
            cost_model, estimator or CardinalityEstimator(), config
        )

    def stats(self) -> SkeletonPlannerStats:
        return self.planner.stats()

    def replan_jobs(self, jobs) -> list[PlannedJob]:
        """Replan every instance; results align with the input order.

        ``optimize_seconds`` is the call's wall time split evenly over its
        jobs (see :meth:`~repro.optimizer.search.CascadesSearch._plan_all`).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        return self.planner._plan_all(
            (job.template_id, job.day, job.logical, job.salt) for job in jobs
        )


def replan_jobs(
    jobs,
    cost_model,
    estimator: CardinalityEstimator | None = None,
    config: PlannerConfig | None = None,
) -> list[PlannedJob]:
    """One-shot fleet replanning (see :class:`FleetReplanner`)."""
    return FleetReplanner(cost_model, estimator, config).replan_jobs(jobs)


__all__ = ["FleetReplanner", "ReplanJob", "replan_jobs"]
