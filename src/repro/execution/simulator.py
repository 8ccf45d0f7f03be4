"""The distributed execution simulator: one cluster's hidden ground truth.

The simulator holds what every execution of a job on one cluster shares:
the hidden ground-truth latency model (:mod:`repro.execution.ground_truth`,
with its multiplier caches) and the seeded RNG tree whose
``("noise", job_id, day)`` children draw per-execution noise.  Jobs execute
through :class:`~repro.execution.batch.BatchedExecutionEngine`, which wraps
one simulator; the simulator itself keeps the noise-free oracle used by the
performance experiments (Figures 19-20): end-to-end latency over the stage
critical path and total processing time across containers.  The stage rule
(start-up charge, per-stage sums, the finish-time recurrence) is
:mod:`repro.execution.trace`'s.
"""

from __future__ import annotations

from repro.common.rng import RngFactory
from repro.execution.ground_truth import GroundTruthModel, GroundTruthParams
from repro.execution.hardware import ClusterSpec
from repro.execution.trace import stage_finish_times, stage_seconds, stage_work
from repro.plan.physical import PhysicalOp
from repro.plan.stages import build_stage_graph


class ExecutionSimulator:
    """One cluster's ground truth, noise streams and noise-free oracle.

    The same simulator instance must be reused across a workload so that the
    hidden-multiplier cache stays warm; executions are deterministic given
    the seed and the (job_id, day) pair of each run.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        params: GroundTruthParams | None = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.ground_truth = GroundTruthModel(cluster, params)
        self._rngs = RngFactory(seed).spawn("simulator", cluster.name)

    def _stage_critical_path(
        self, plan: PhysicalOp, latencies: dict[int, float]
    ) -> tuple[list[float], float]:
        """Per-stage latency and end-to-end latency (critical path)."""
        graph = build_stage_graph(plan)
        seconds = stage_seconds(
            stage_work(latencies, (map(id, stage.operators) for stage in graph.stages))
        )
        finish = stage_finish_times(
            seconds,
            [stage.upstream for stage in graph.stages],
            [stage.index for stage in graph.topological_order()],
        )
        return seconds, max(finish, default=0.0)

    def expected_job_latency(self, plan: PhysicalOp) -> float:
        """Noise-free end-to-end latency: the oracle for plan comparisons."""
        latencies = {
            id(op): self.ground_truth.exclusive_latency(op, rng=None)
            for op in plan.walk()
        }
        _, total = self._stage_critical_path(plan, latencies)
        return total

    def expected_cpu_seconds(self, plan: PhysicalOp) -> float:
        """Noise-free total processing time across all containers."""
        total = 0.0
        for op in plan.walk():
            latency = self.ground_truth.exclusive_latency(op, rng=None)
            total += self.ground_truth.cpu_seconds(op, latency)
        return total
