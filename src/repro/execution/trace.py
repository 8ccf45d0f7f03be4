"""Execution traces: per-stage timelines and critical-path analysis.

Production SCOPE exposes job execution graphs for debugging; this module
provides the simulator-side equivalent.  A :class:`JobTrace` records when
each stage starts and finishes under the critical-path schedule, which
stages are on the critical path, and where the job's time goes — the view
an engineer uses to understand why a Cleo plan beat (or lost to) the default
plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.execution.simulator import STAGE_STARTUP_SECONDS, ExecutionSimulator
from repro.plan.physical import PhysicalOp
from repro.plan.stages import build_stage_graph


@dataclass(frozen=True)
class StageTrace:
    """Timeline entry for one stage."""

    index: int
    partition_count: int
    operator_types: tuple[str, ...]
    start_seconds: float
    finish_seconds: float
    on_critical_path: bool

    @property
    def duration(self) -> float:
        return self.finish_seconds - self.start_seconds


@dataclass(frozen=True)
class JobTrace:
    """Full execution timeline of one simulated job."""

    stages: tuple[StageTrace, ...]
    total_latency: float

    @property
    def critical_path(self) -> tuple[StageTrace, ...]:
        return tuple(s for s in self.stages if s.on_critical_path)

    @property
    def critical_path_fraction(self) -> float:
        """Share of summed stage time that sits on the critical path."""
        total = sum(s.duration for s in self.stages)
        if total <= 0:
            return 1.0
        return sum(s.duration for s in self.critical_path) / total

    def bottleneck(self) -> StageTrace:
        """The longest stage on the critical path."""
        return max(self.critical_path, key=lambda s: s.duration)

    def describe(self) -> str:
        lines = [f"job latency: {self.total_latency:.1f}s over {len(self.stages)} stages"]
        for stage in sorted(self.stages, key=lambda s: s.start_seconds):
            marker = "*" if stage.on_critical_path else " "
            ops = ",".join(stage.operator_types)
            lines.append(
                f" {marker} stage {stage.index:>2} "
                f"[{stage.start_seconds:8.1f} -> {stage.finish_seconds:8.1f}] "
                f"P={stage.partition_count:<5} {ops}"
            )
        lines.append("(* = on the critical path)")
        return "\n".join(lines)


def trace_job(simulator: ExecutionSimulator, plan: PhysicalOp) -> JobTrace:
    """Noise-free execution timeline of ``plan`` on ``simulator``.

    Stages start as soon as all upstream stages finish (infinite concurrent
    stage slots — SCOPE schedules independent stages in parallel); the
    critical path is recovered by backtracking from the final stage.
    """
    graph = build_stage_graph(plan)
    durations: dict[int, float] = {}
    for stage in graph.stages:
        durations[stage.index] = STAGE_STARTUP_SECONDS + sum(
            simulator.ground_truth.exclusive_latency(op, rng=None)
            for op in stage.operators
        )

    start: dict[int, float] = {}
    finish: dict[int, float] = {}
    for stage in graph.topological_order():
        start[stage.index] = max((finish[u] for u in stage.upstream), default=0.0)
        finish[stage.index] = start[stage.index] + durations[stage.index]

    # Backtrack the critical path from the stage that finishes last.
    critical: set[int] = set()
    current = max(finish, key=lambda idx: finish[idx])
    while True:
        critical.add(current)
        upstream = graph.stages[current].upstream
        if not upstream:
            break
        current = max(upstream, key=lambda idx: finish[idx])

    stages = tuple(
        StageTrace(
            index=stage.index,
            partition_count=stage.partition_count,
            operator_types=tuple(op.op_type.value for op in stage.operators),
            start_seconds=start[stage.index],
            finish_seconds=finish[stage.index],
            on_critical_path=stage.index in critical,
        )
        for stage in graph.stages
    )
    return JobTrace(stages=stages, total_latency=max(finish.values()))


def compare_traces(before: JobTrace, after: JobTrace) -> str:
    """Human-readable latency diff between two plans' traces."""
    delta = before.total_latency - after.total_latency
    pct = 100.0 * delta / before.total_latency if before.total_latency else 0.0
    lines = [
        f"latency: {before.total_latency:.1f}s -> {after.total_latency:.1f}s "
        f"({pct:+.1f}%)",
        f"stages: {len(before.stages)} -> {len(after.stages)}",
        f"critical-path stages: {len(before.critical_path)} -> {len(after.critical_path)}",
        (
            "bottleneck before: "
            f"{','.join(before.bottleneck().operator_types)} "
            f"({before.bottleneck().duration:.1f}s, P={before.bottleneck().partition_count})"
        ),
        (
            "bottleneck after:  "
            f"{','.join(after.bottleneck().operator_types)} "
            f"({after.bottleneck().duration:.1f}s, P={after.bottleneck().partition_count})"
        ),
    ]
    return "\n".join(lines)
