"""Workload runner: optimize and execute jobs, collecting the run log.

This is the reproduction's stand-in for a production cluster's day: every
job is planned (default cost model + default partition heuristics, like the
logs Cleo trains from), executed on the simulator, and instrumented into a
:class:`~repro.execution.runtime_log.RunLog`.

Two execution paths produce bit-identical logs:

* :meth:`WorkloadRunner.run_days` — the batched engine: planning replayed
  over a per-``(template_id, day)`` skeleton cache
  (:class:`~repro.optimizer.skeleton.SkeletonPlanner`), ground truth and
  features vectorized per job, rows kept as one columnar
  :class:`~repro.execution.runtime_log.OperatorBlock` per call
  (:class:`~repro.execution.batch.BatchedExecutionEngine`).  Falls back to
  the scalar path for non-stock configurations (cost models without
  ``supports_replay_costing``, partition strategies).
* :meth:`WorkloadRunner.run_days_reference` — the retained scalar path:
  one :meth:`run_job` per job through planner and simulator, appending one
  job record (a block of its own) at a time.  It backs the parity tests
  (``tests/workload/test_batched_parity.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
from repro.cost.default_model import DefaultCostModel
from repro.cost.interface import CostModel
from repro.execution.batch import BatchedExecutionEngine
from repro.execution.ground_truth import GroundTruthParams
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import RunLog
from repro.execution.simulator import ExecutionSimulator
from repro.optimizer.planner import PlannedJob, PlannerConfig, QueryPlanner
from repro.optimizer.skeleton import SkeletonPlanner, materialize, supports_fast_path
from repro.plan.physical import PhysicalOp
from repro.workload.generator import WorkloadGenerator
from repro.workload.templates import JobSpec, instantiate


@dataclass
class WorkloadRunner:
    """Runs one cluster's workload through planner + simulator."""

    cluster: ClusterSpec
    seed: int = 0
    ground_truth: GroundTruthParams | None = None
    estimator_config: EstimatorConfig | None = None
    planner_config: PlannerConfig | None = None
    cost_model: CostModel | None = None
    keep_plans: bool = False
    plans: dict[str, PhysicalOp] = field(default_factory=dict)

    #: Which path the most recent ``run_days`` call took: ``True`` for the
    #: batched engine, ``False`` for the scalar fallback, ``None`` before
    #: any call.  Surfaced so a config tweak that silently costs the
    #: batched speedup is observable (a ``RuntimeWarning`` also fires).
    last_run_used_batched: bool | None = field(default=None, init=False)

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

    def run_job(self, job: JobSpec, generator: WorkloadGenerator, log: RunLog) -> PlannedJob:
        """Plan + execute one job through the scalar path, appending to ``log``."""
        catalog = generator.catalog_for_day(job.day)
        logical = instantiate(job, catalog)
        self._planner.jitter_salt = job.job_id
        planned = self._planner.plan(logical)
        result = self.simulator.run_job(
            planned.plan,
            job_id=job.job_id,
            template_id=job.template.template_id,
            day=job.day,
            is_adhoc=job.is_adhoc,
            estimator=self._estimator,
        )
        log.append(result.record)
        if self.keep_plans:
            self.plans[job.job_id] = planned.plan
        return planned

    # ------------------------------------------------------------------ #
    # Multi-day execution
    # ------------------------------------------------------------------ #

    def run_days(self, generator: WorkloadGenerator, days: list[int] | range) -> RunLog:
        """Run every job of the given days; returns the combined log.

        Uses the batched engine when the configuration is stock (the common
        case); otherwise falls back to the scalar reference path.  Both
        produce bit-identical logs.  The path taken is recorded on
        :attr:`last_run_used_batched`, and the fallback additionally emits
        a ``RuntimeWarning`` — a config tweak that silently costs the
        batched engine's speedup should never go unnoticed.
        """
        if self.batched_supported:
            self.last_run_used_batched = True
            return self._run_days_batched(generator, days)
        self.last_run_used_batched = False
        warnings.warn(
            "WorkloadRunner.run_days: configuration is not supported by the "
            "batched engine (cost model without replay costing, estimator "
            "subclass, or partition strategy); falling back to the scalar "
            "reference path",
            RuntimeWarning,
            stacklevel=2,
        )
        return self.run_days_reference(generator, days)

    def run_days_reference(
        self, generator: WorkloadGenerator, days: list[int] | range
    ) -> RunLog:
        """The retained scalar path: one ``run_job`` per job, per-record
        appends.  Backs the parity tests."""
        log = RunLog()
        for day in days:
            for job in generator.jobs_for_day(day):
                self.run_job(job, generator, log)
        return log

    @property
    def batched_supported(self) -> bool:
        """True when the batched engine is exact for this configuration."""
        return supports_fast_path(
            self._cost_model, self._estimator, self._planner.config
        )

    def _run_days_batched(
        self, generator: WorkloadGenerator, days: list[int] | range
    ) -> RunLog:
        if self._skeleton_planner is None or self._batched_generator is not generator:
            # Skeleton and shape-statics caches are keyed by template_id,
            # which is only unique within one generator — a different
            # generator (even another instance with the same config) gets
            # fresh caches so stale structures are never served.
            self._skeleton_planner = SkeletonPlanner(
                self._cost_model, self._estimator, self._planner.config
            )
            self._engine = BatchedExecutionEngine(self.simulator)
            self._batched_generator = generator
        skeleton_planner = self._skeleton_planner
        # Skeletons are cached per (template, day): earlier calls' days can
        # never hit again, so they are dropped rather than kept until the
        # cache's clear-at-limit cap.
        days = list(days)
        skeleton_planner.keep_days(days)
        engine = self._engine
        assert engine is not None
        engine.begin()
        for day in days:
            catalog = generator.catalog_for_day(day)
            for job in generator.jobs_for_day(day):
                logical = instantiate(job, catalog)
                win = skeleton_planner.plan_job(
                    job.template.template_id, job.day, logical, job.job_id
                )
                plan = materialize(win) if self.keep_plans else None
                statics = engine.statics_for(
                    win, skeleton_planner.last_choice_key, plan
                )
                engine.add_job(
                    win,
                    statics,
                    job.job_id,
                    job.template.template_id,
                    job.day,
                    job.is_adhoc,
                )
                if plan is not None:
                    self.plans[job.job_id] = plan
        return RunLog(jobs=engine.finish())
