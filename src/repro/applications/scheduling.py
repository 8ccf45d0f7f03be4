"""Task runtime estimation for cluster scheduling.

Section 6.7 cites "estimating task runtimes for scheduling [6]" (Apollo) as
a cost-model use case.  In SCOPE, the job manager packs stage tasks onto a
bounded pool of containers; how well it packs depends directly on how well
it can predict each stage's runtime.  This module closes that loop on the
reproduction's substrate:

1. :func:`job_to_tasks` decomposes a planned job into stage tasks, each with
   a *predicted* runtime from a cost model (learned or default) and an
   *actual* runtime from the execution simulator's ground truth — both the
   stage seconds of a :class:`~repro.execution.trace.Timeline`;
2. :class:`ClusterScheduler` runs an event-driven simulation of a container
   pool executing those tasks under precedence constraints, making ordering
   decisions with the predicted runtimes but advancing time with the actual
   ones;
3. :class:`SchedulingStudy` compares the resulting makespan and mean job
   completion time across estimators — the learned models' better estimates
   translate into better schedules, which is the Apollo argument.

The scheduler is intentionally simple (greedy list scheduling with
longest-estimated-work-first or shortest-estimated-job-first policies);
the comparison isolates the value of the *estimates*, not the policy.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import ValidationError
from repro.cost.interface import CostModel
from repro.execution.simulator import ExecutionSimulator
from repro.execution.trace import Timeline, timeline, trace_job
from repro.plan.physical import PhysicalOp
from repro.serving.service import CleoService, as_cost_model


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable stage task.

    ``containers`` is the stage's partition count — the gang size the task
    occupies while running.  ``upstream`` holds stage indices within the
    same job that must finish first.
    """

    job_id: str
    stage_index: int
    containers: int
    estimated_seconds: float
    actual_seconds: float
    upstream: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.containers < 1:
            raise ValidationError("task needs at least one container")
        if self.estimated_seconds < 0 or self.actual_seconds < 0:
            raise ValidationError("task runtimes must be non-negative")

    @property
    def key(self) -> tuple[str, int]:
        return (self.job_id, self.stage_index)


def job_to_tasks(
    plan: PhysicalOp,
    job_id: str,
    cost_model: "CostModel | CleoService",
    estimator: CardinalityEstimator,
    simulator: ExecutionSimulator,
) -> list[TaskSpec]:
    """Decompose a physical plan into stage tasks with runtime estimates.

    Estimated runtime: the stage seconds of the cost model's exclusive
    operator costs (what the job manager would compute at submit time) —
    one ``price_operators`` call per plan under a model that advertises
    ``supports_batched_pricing``, an ``operator_cost`` per operator
    otherwise.  Actual runtime: those of the simulator's noise-free ground
    truth (what execution will take).
    """
    cost_model = as_cost_model(cost_model)
    ops = list(plan.walk())
    if getattr(cost_model, "supports_batched_pricing", False):
        costs = cost_model.price_operators(ops, estimator).tolist()
    else:
        costs = [cost_model.operator_cost(op, estimator) for op in ops]
    return _tasks(job_id, timeline(plan, costs), trace_job(simulator, plan))


def _tasks(job_id: str, estimated: Timeline, actual: Timeline) -> list[TaskSpec]:
    """One task per stage of two timelines of the same plan."""
    return [
        TaskSpec(
            job_id=job_id,
            stage_index=stage.index,
            containers=stage.partition_count,
            estimated_seconds=stage.seconds,
            actual_seconds=executed.seconds,
            upstream=stage.upstream,
        )
        for stage, executed in zip(estimated.stages, actual.stages)
    ]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of one scheduler simulation."""

    makespan: float
    job_completion: dict[str, float]
    container_busy_seconds: float
    total_containers: int

    @property
    def mean_job_completion(self) -> float:
        if not self.job_completion:
            return 0.0
        return sum(self.job_completion.values()) / len(self.job_completion)

    @property
    def utilization(self) -> float:
        """Busy container-seconds over the pool's capacity until makespan."""
        capacity = self.total_containers * self.makespan
        if capacity <= 0:
            return 0.0
        return min(1.0, self.container_busy_seconds / capacity)


class ClusterScheduler:
    """Greedy list scheduler over a bounded container pool.

    Policies (applied to the *estimated* runtimes, since the scheduler
    cannot see the future):

    * ``"lpt"`` — longest predicted task first, the classic makespan
      heuristic;
    * ``"sjf"`` — tasks of the job with the shortest predicted remaining
      work first, which favours mean job completion time;
    * ``"fifo"`` — submission order, the estimate-free baseline.
    """

    POLICIES = ("lpt", "sjf", "fifo")

    def __init__(self, total_containers: int, policy: str = "lpt") -> None:
        if total_containers < 1:
            raise ValidationError("scheduler needs at least one container")
        if policy not in self.POLICIES:
            raise ValidationError(f"unknown policy {policy!r}; use one of {self.POLICIES}")
        self.total_containers = total_containers
        self.policy = policy

    def run(self, jobs: dict[str, list[TaskSpec]]) -> ScheduleOutcome:
        """Simulate executing all jobs' tasks on the container pool.

        Tasks become ready when their upstream stages (same job) finish.
        A ready task runs as soon as its gang of containers is free; gangs
        larger than the pool are clamped to the pool size (SCOPE runs such
        stages in waves; the wave overhead is already inside the actual
        runtime via the per-partition setup term).
        """
        remaining_work = {
            job_id: sum(t.estimated_seconds for t in tasks)
            for job_id, tasks in jobs.items()
        }
        submit_order = {
            task.key: order
            for order, task in enumerate(
                itertools.chain.from_iterable(jobs.values())
            )
        }
        pending: dict[tuple[str, int], TaskSpec] = {
            task.key: task for tasks in jobs.values() for task in tasks
        }
        if len(pending) != sum(len(t) for t in jobs.values()):
            raise ValidationError("duplicate (job_id, stage_index) among tasks")
        done: set[tuple[str, int]] = set()
        ready: list[TaskSpec] = [
            task for task in pending.values() if not task.upstream
        ]
        for task in ready:
            del pending[task.key]

        clock = 0.0
        free = self.total_containers
        busy_seconds = 0.0
        completion: dict[str, float] = {}
        running: list[tuple[float, int, TaskSpec]] = []  # (finish, tiebreak, task)
        tiebreak = itertools.count()

        while ready or running:
            started = True
            while started:
                started = False
                for task in sorted(ready, key=lambda t: self._priority(t, remaining_work, submit_order)):
                    gang = min(task.containers, self.total_containers)
                    if gang <= free:
                        free -= gang
                        finish = clock + task.actual_seconds
                        busy_seconds += gang * task.actual_seconds
                        heapq.heappush(running, (finish, next(tiebreak), task))
                        ready.remove(task)
                        started = True
                        break
            if not running:
                raise ValidationError(
                    "deadlock: ready tasks cannot fit and nothing is running"
                )
            finish, _, finished_task = heapq.heappop(running)
            clock = finish
            free += min(finished_task.containers, self.total_containers)
            done.add(finished_task.key)
            remaining_work[finished_task.job_id] -= finished_task.estimated_seconds
            completion[finished_task.job_id] = clock
            newly_ready = [
                task
                for task in pending.values()
                if all((task.job_id, u) in done for u in task.upstream)
            ]
            for task in newly_ready:
                del pending[task.key]
                ready.append(task)

        if pending:
            raise ValidationError(
                f"unreachable tasks (cyclic or dangling upstream): "
                f"{sorted(pending)}"
            )
        return ScheduleOutcome(
            makespan=clock,
            job_completion=completion,
            container_busy_seconds=busy_seconds,
            total_containers=self.total_containers,
        )

    def _priority(
        self,
        task: TaskSpec,
        remaining_work: dict[str, float],
        submit_order: dict[tuple[str, int], int],
    ) -> tuple[float, int]:
        """Sort key — lower runs first."""
        if self.policy == "lpt":
            return (-task.estimated_seconds, submit_order[task.key])
        if self.policy == "sjf":
            return (remaining_work[task.job_id], submit_order[task.key])
        return (float(submit_order[task.key]), 0)


@dataclass
class SchedulingStudy:
    """Compares schedule quality across runtime estimators.

    Each named estimator is a cost model used to produce the *estimated*
    runtimes; the actual runtimes (and thus the executed schedule length)
    come from the shared ground truth, so differences in outcome are due
    purely to estimate-driven ordering decisions.
    """

    simulator: ExecutionSimulator
    estimator: CardinalityEstimator
    total_containers: int
    policy: str = "sjf"
    results: dict[str, ScheduleOutcome] = field(default_factory=dict)

    def run(
        self,
        plans: dict[str, PhysicalOp],
        cost_models: "dict[str, CostModel | CleoService]",
    ) -> dict[str, ScheduleOutcome]:
        """Schedule the same plans under each estimator; returns outcomes."""
        if not plans:
            raise ValidationError("scheduling study needs at least one plan")
        scheduler = ClusterScheduler(self.total_containers, self.policy)
        self.results = {}
        for name, model in cost_models.items():
            jobs = {
                job_id: job_to_tasks(plan, job_id, model, self.estimator, self.simulator)
                for job_id, plan in plans.items()
            }
            self.results[name] = scheduler.run(jobs)
        return self.results

    def oracle(self, plans: dict[str, PhysicalOp]) -> ScheduleOutcome:
        """Schedule with perfect runtime knowledge (the lower bound): each
        job's actual stage seconds serve as its estimates too."""
        traces = {job_id: trace_job(self.simulator, plan) for job_id, plan in plans.items()}
        jobs = {job_id: _tasks(job_id, trace, trace) for job_id, trace in traces.items()}
        return ClusterScheduler(self.total_containers, self.policy).run(jobs)
