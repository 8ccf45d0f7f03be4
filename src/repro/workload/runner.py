"""Workload runner: optimize and execute jobs, collecting the run log.

This is the reproduction's stand-in for a production cluster's day: every
job is planned (default cost model + default partition heuristics, like the
logs Cleo trains from), executed, and instrumented into a
:class:`~repro.execution.runtime_log.RunLog`.

Every job executes on one executor,
:class:`~repro.execution.batch.BatchedExecutionEngine`: ground truth and
features vectorized per run, rows kept as one columnar
:class:`~repro.execution.runtime_log.OperatorBlock` per call.  Planning has
two forms.  A stock configuration (:func:`~repro.optimizer.skeleton.
supports_fast_path`) replays the search over a per-``(template_id, day)``
skeleton cache (:class:`~repro.optimizer.skeleton.SkeletonPlanner`); any
other (a partition strategy, a cost model without replay costing) plans
each job through :class:`~repro.optimizer.planner.QueryPlanner`.  The
per-operator walk in :mod:`repro.reference` is the parity oracle for both
(``tests/workload/test_batched_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import CostModel
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.ground_truth import GroundTruthParams
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import RunLog
from repro.execution.simulator import ExecutionSimulator
from repro.optimizer.planner import PlannerConfig, QueryPlanner
from repro.optimizer.skeleton import SkeletonPlanner, materialize, supports_fast_path
from repro.plan.physical import PhysicalOp
from repro.workload.generator import WorkloadGenerator
from repro.workload.templates import instantiate


@dataclass
class WorkloadRunner:
    """Runs one cluster's workload through planner + engine."""

    cluster: ClusterSpec
    seed: int = 0
    ground_truth: GroundTruthParams | None = None
    estimator_config: EstimatorConfig | None = None
    planner_config: PlannerConfig | None = None
    cost_model: CostModel | None = None
    keep_plans: bool = False
    plans: dict[str, PhysicalOp] = field(default_factory=dict)

    #: Natural allocation wobble recorded in production logs; this is what
    #: gives the learned models within-template partition-count signal.
    DEFAULT_PARTITION_JITTER = 0.35

    def __post_init__(self) -> None:
        self.simulator = ExecutionSimulator(
            self.cluster, params=self.ground_truth, seed=self.seed
        )
        self._estimator = CardinalityEstimator(self.estimator_config)
        self._cost_model = self.cost_model or DefaultCostModel()
        config = self.planner_config or PlannerConfig(
            partition_jitter=self.DEFAULT_PARTITION_JITTER
        )
        self._planner = QueryPlanner(self._cost_model, self._estimator, config)
        self._skeleton_planner: SkeletonPlanner | None = None
        self._engine: BatchedExecutionEngine | None = None
        self._batched_generator: WorkloadGenerator | None = None

    def run_days(self, generator: WorkloadGenerator, days: list[int] | range) -> RunLog:
        """Run every job of the given days; returns the combined log."""
        if self._engine is None or self._batched_generator is not generator:
            # Skeletons are keyed by template_id and shape statics by
            # template tags, both only unique within one generator — a
            # different generator (even another instance with the same
            # config) gets fresh caches so stale structures are never served.
            config = self._planner.config
            replay = supports_fast_path(self._cost_model, self._estimator, config)
            self._skeleton_planner = (
                SkeletonPlanner(self._cost_model, self._estimator, config) if replay else None
            )
            self._engine = BatchedExecutionEngine(self.simulator)
            self._batched_generator = generator
        skeleton_planner = self._skeleton_planner
        engine = self._engine
        # Skeletons are cached per (template, day): earlier calls' days can
        # never hit again, so they are dropped rather than kept until the
        # cache's clear-at-limit cap.
        days = list(days)
        if skeleton_planner is not None:
            skeleton_planner.keep_days(days)
        engine.begin()
        for day in days:
            catalog = generator.catalog_for_day(day)
            for job in generator.jobs_for_day(day):
                logical = instantiate(job, catalog)
                template_id = job.template.template_id
                if skeleton_planner is None:
                    self._planner.jitter_salt = job.job_id
                    plan = self._planner.plan(logical).plan
                    engine.add_plan(
                        plan, self._estimator, job.job_id, template_id, job.day, job.is_adhoc
                    )
                else:
                    win = skeleton_planner.plan_job(template_id, job.day, logical, job.job_id)
                    engine.add_job(win, job.job_id, template_id, job.day, job.is_adhoc)
                    plan = materialize(win) if self.keep_plans else None
                if self.keep_plans:
                    self.plans[job.job_id] = plan
        return RunLog(jobs=engine.finish())
