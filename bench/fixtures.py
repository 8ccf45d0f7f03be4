"""What the workloads run on: the four clusters, their logs, models and streams.

Built directly from ``WorkloadGenerator`` + ``WorkloadRunner(keep_plans=True)``
rather than the process-cached ``get_bundle``, so that set-up time is paid,
and seen, on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.predictor import CleoPredictor
from repro.core.trainer import CleoTrainer
from repro.execution.hardware import DEFAULT_CLUSTERS
from repro.execution.runtime_log import RunLog
from repro.experiments.shared import workload_config
from repro.optimizer.replan import ReplanJob
from repro.plan.logical import LogicalOp
from repro.serving.service import PredictionRequest
from repro.serving.shard.loadgen import DEFAULT_PLAN_EVERY, PlanJob, PredictJob
from repro.workload import templates
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner

STRUCTURE_SEED = 0

#: Every workload serves through ``ShardedCleoRouter(n_shards=2, n_workers=1)``.
N_SHARDS = 2


def paper_split(window: tuple[int, ...]) -> dict:
    """``CleoTrainer.train`` keywords for the paper's split: individual
    models on the whole window, the combined model on its last day."""
    return {"individual_days": list(window), "combined_days": [window[-1]]}


@dataclass(frozen=True)
class CompileJob:
    """One job of a fleet-day as an optimizer session sees it."""

    cluster: str
    job_id: str
    logical: LogicalOp


class Fleet:
    """The four default clusters: generator, runner and executed log of each.

    ``seed`` feeds the execution simulators: what each cluster observes when
    it runs its jobs, and so the logs, the models trained on them, the costs
    they predict and the plans chosen by them.  The clusters' tables,
    fragments and templates are the benchmark's and do not move with the
    seed (``STRUCTURE_SEED``): table sizes are log-uniform over three
    decades, so a re-drawn structure moves per-job cost by 20-40% and would
    drown any bound.  The program under test sees only generated inputs.
    """

    def __init__(self, seed: int, scale: str) -> None:
        self.names = tuple(spec.name for spec in DEFAULT_CLUSTERS)
        self.generators = {
            spec.name: WorkloadGenerator(
                workload_config(spec.name, scale, STRUCTURE_SEED)
            )
            for spec in DEFAULT_CLUSTERS
        }
        self.runners = {
            spec.name: WorkloadRunner(cluster=spec, seed=seed, keep_plans=True)
            for spec in DEFAULT_CLUSTERS
        }
        #: Everything each cluster has executed so far, in day order.
        self.logs = {name: RunLog() for name in self.names}
        #: Training rows the data-quality gate dropped (``TrainingAudit``).
        self.rows_dropped = 0

    def execute(self, name: str, days: list[int]) -> RunLog:
        """Run the days on the cluster's engine; returns just those days."""
        log = self.runners[name].run_days(self.generators[name], days)
        self.logs[name].extend(log.jobs)
        return log

    def forget_before(self, name: str, day: int) -> None:
        """Drop the cluster's logs and default plans of days before ``day``,
        as a nightly driver would, so that memory does not grow by the night."""
        log = self.logs[name]
        self.logs[name] = log.filter(days=[d for d in log.days if d >= day])
        self.runners[name].plans.clear()

    def train(self, name: str, window: tuple[int, ...]) -> CleoPredictor:
        trainer = CleoTrainer()
        predictor = trainer.train(self.logs[name], **paper_split(window))
        if trainer.last_audit is not None:
            self.rows_dropped += trainer.last_audit.rows_dropped
        return predictor

    def replan_jobs(self, name: str, day: int) -> list[ReplanJob]:
        generator = self.generators[name]
        catalog = generator.catalog_for_day(day)
        return [
            ReplanJob(
                spec.job_id,
                spec.template.template_id,
                spec.day,
                templates.instantiate(spec, catalog),
            )
            for spec in generator.jobs_for_day(day)
        ]

    def compile_jobs(self, day: int) -> list[CompileJob]:
        """The fleet-day's jobs, round-robin across clusters."""
        per_cluster = []
        for name in self.names:
            generator = self.generators[name]
            catalog = generator.catalog_for_day(day)
            per_cluster.append(
                [
                    CompileJob(name, spec.job_id, templates.instantiate(spec, catalog))
                    for spec in generator.jobs_for_day(day)
                ]
            )
        return _round_robin(per_cluster)

    def day_requests(self, day_logs: dict[str, RunLog]) -> list["PredictJob | PlanJob"]:
        """One executed day as serving traffic: a ``PredictJob`` per job and a
        ``PlanJob`` after every ``DEFAULT_PLAN_EVERY``-th, round-robin across
        clusters (``loadgen.build_load``'s shape, for one day)."""
        per_cluster = []
        for name in self.names:
            plans = self.runners[name].plans
            steps = []
            for j, job in enumerate(day_logs[name]):
                requests = tuple(
                    PredictionRequest.for_record(record) for record in job.operators
                )
                step = [PredictJob(name, job.job_id, requests)]
                if j % DEFAULT_PLAN_EVERY == 0:
                    step.append(PlanJob(name, job.job_id, plans[job.job_id]))
                steps.append(step)
            per_cluster.append(steps)
        return [request for step in _round_robin(per_cluster) for request in step]


def _round_robin(lists: list[list]) -> list:
    out = []
    for j in range(max(len(items) for items in lists)):
        out.extend(items[j] for items in lists if j < len(items))
    return out
