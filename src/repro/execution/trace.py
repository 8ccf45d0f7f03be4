"""Stage schedules: the one home of the stage rule.

A SCOPE job runs as a DAG of stages (Section 2.1): a stage takes its
operators' exclusive seconds plus a fixed start-up charge, starts once every
upstream stage has finished (infinite concurrent stage slots — independent
stages run in parallel), and the job's latency is the finish time of its
last stage, the critical path.  This module holds that rule once:

* :func:`stage_work` / :func:`stage_seconds` — a stage's operator seconds,
  summed left to right in member order, plus :data:`STAGE_STARTUP_SECONDS`;
* :func:`stage_finish_times` — the finish-time recurrence over the DAG.

``ExecutionSimulator`` and ``BatchedExecutionEngine`` call those on the
shapes they already hold, so the scalar and batched run logs agree by
construction.  :func:`timeline` builds the full per-stage schedule — a
:class:`Timeline` of :class:`StageTiming` entries with start, finish, CPU
time and critical-path membership — from *any* per-operator seconds:
:func:`trace_job` feeds it the simulator's noise-free ground truth (the view
an engineer uses to see why a Cleo plan beat, or lost to, the default plan),
and :mod:`repro.applications` feeds it learned predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.plan.physical import PhysicalOp
from repro.plan.stages import build_stage_graph

if TYPE_CHECKING:
    from repro.execution.simulator import ExecutionSimulator

#: Fixed per-stage scheduling latency (container acquisition, setup waves).
STAGE_STARTUP_SECONDS = 2.0


def stage_work(
    op_seconds: Sequence[float] | Mapping[int, float],
    stage_members: Iterable[Iterable[int]],
) -> list[float]:
    """Each stage's summed operator seconds.

    ``stage_members[i]`` holds stage ``i``'s operators as keys into
    ``op_seconds``; every sum runs left to right in member order from zero,
    so every caller gets the same bits.
    """
    work: list[float] = []
    for members in stage_members:
        total = 0.0
        for key in members:
            total += op_seconds[key]
        work.append(total)
    return work


def stage_seconds(work: Iterable[float]) -> list[float]:
    """Each stage's wall seconds: its operator work plus the start-up charge."""
    return [STAGE_STARTUP_SECONDS + w for w in work]


def stage_finish_times(
    stage_seconds: Sequence[float],
    upstream: Sequence[Iterable[int]],
    topo: Iterable[int],
) -> list[float]:
    """When each stage finishes, starting as soon as its producers have.

    ``upstream[i]`` names stage ``i``'s producer stages and ``topo`` lists
    every stage index, producers first.  The job's latency is the largest
    finish time.
    """
    finish = [0.0] * len(stage_seconds)
    for i in topo:
        finish[i] = _start_time(finish, upstream[i]) + stage_seconds[i]
    return finish


def _start_time(finish: Sequence[float], producers: Iterable[int]) -> float:
    """A stage starts once its last producer has finished."""
    return max((finish[u] for u in producers), default=0.0)


@dataclass(frozen=True)
class StageTiming:
    """One stage of a job's schedule.

    ``cpu_seconds`` is the stage's operator work (``seconds`` without the
    start-up charge) on every one of its partitions.
    """

    index: int
    partition_count: int
    operator_types: tuple[str, ...]
    upstream: tuple[int, ...]
    seconds: float
    cpu_seconds: float
    start_seconds: float
    finish_seconds: float
    on_critical_path: bool


@dataclass(frozen=True)
class Timeline:
    """A job's stage schedule: when each stage runs, and the job totals."""

    stages: tuple[StageTiming, ...]
    latency_seconds: float
    cpu_seconds: float

    @property
    def critical_path(self) -> tuple[StageTiming, ...]:
        return tuple(s for s in self.stages if s.on_critical_path)

    def bottleneck(self) -> StageTiming:
        """The longest stage on the critical path."""
        return max(self.critical_path, key=lambda s: s.seconds)

    def describe(self) -> str:
        lines = [
            f"latency: {self.latency_seconds:.1f}s, "
            f"cpu: {self.cpu_seconds / 3600.0:.2f}h, {len(self.stages)} stages"
        ]
        for stage in sorted(self.stages, key=lambda s: s.start_seconds):
            marker = "*" if stage.on_critical_path else " "
            lines.append(
                f" {marker} stage {stage.index:>2} "
                f"[{stage.start_seconds:8.1f} -> {stage.finish_seconds:8.1f}] "
                f"P={stage.partition_count:<5} {','.join(stage.operator_types)}"
            )
        lines.append("(* = on the critical path)")
        return "\n".join(lines)


def timeline(plan: PhysicalOp, op_seconds: Sequence[float]) -> Timeline:
    """The stage schedule of ``plan`` when its operators take ``op_seconds``
    (one value per operator, in ``plan.walk()`` order)."""
    graph = build_stage_graph(plan)
    seconds_of = {id(op): s for op, s in zip(plan.walk(), op_seconds)}
    work = stage_work(seconds_of, (map(id, stage.operators) for stage in graph.stages))
    seconds = stage_seconds(work)
    topo = [stage.index for stage in graph.topological_order()]
    finish = stage_finish_times(seconds, [stage.upstream for stage in graph.stages], topo)

    # Backtrack the critical path from the stage that finishes last.
    critical: set[int] = set()
    current = max(topo, key=finish.__getitem__)
    while True:
        critical.add(current)
        upstream = graph.stages[current].upstream
        if not upstream:
            break
        current = max(upstream, key=finish.__getitem__)

    cpu = [w * stage.partition_count for w, stage in zip(work, graph.stages)]
    cpu_seconds = 0.0
    for stage_cpu in cpu:  # left to right, like every stage sum
        cpu_seconds += stage_cpu
    stages = tuple(
        StageTiming(
            index=stage.index,
            partition_count=stage.partition_count,
            operator_types=tuple(op.op_type.value for op in stage.operators),
            upstream=tuple(sorted(stage.upstream)),
            seconds=seconds[stage.index],
            cpu_seconds=cpu[stage.index],
            start_seconds=_start_time(finish, stage.upstream),
            finish_seconds=finish[stage.index],
            on_critical_path=stage.index in critical,
        )
        for stage in graph.stages
    )
    return Timeline(
        stages=stages, latency_seconds=max(finish, default=0.0), cpu_seconds=cpu_seconds
    )


def trace_job(simulator: ExecutionSimulator, plan: PhysicalOp) -> Timeline:
    """Noise-free execution timeline of ``plan`` on ``simulator``."""
    latency = simulator.ground_truth.exclusive_latency
    return timeline(plan, [latency(op, rng=None) for op in plan.walk()])


def compare_traces(before: Timeline, after: Timeline) -> str:
    """Human-readable latency diff between two plans' timelines."""
    delta = before.latency_seconds - after.latency_seconds
    pct = 100.0 * delta / before.latency_seconds if before.latency_seconds else 0.0
    lines = [
        f"latency: {before.latency_seconds:.1f}s -> {after.latency_seconds:.1f}s "
        f"({pct:+.1f}%)",
        f"stages: {len(before.stages)} -> {len(after.stages)}",
        f"critical-path stages: {len(before.critical_path)} -> {len(after.critical_path)}",
    ]
    for label, trace in (("before:", before), ("after: ", after)):
        bottleneck = trace.bottleneck()
        lines.append(
            f"bottleneck {label} {','.join(bottleneck.operator_types)} "
            f"({bottleneck.seconds:.1f}s, P={bottleneck.partition_count})"
        )
    return "\n".join(lines)
