"""The distributed execution simulator.

Executes a physical plan against the hidden ground-truth latency model and
produces (i) per-operator rows for the training feedback loop (one
:class:`~repro.execution.runtime_log.OperatorBlock` per job) and (ii)
job-level outcomes (end-to-end latency over the stage critical path, total
processing time across containers) used by the performance experiments
(Figures 19-20).  The stage rule — start-up charge, per-stage sums, the
finish-time recurrence — is :mod:`repro.execution.trace`'s, called on the
stage graph and the per-operator latencies this module already holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.rng import RngFactory
from repro.execution.ground_truth import GroundTruthModel, GroundTruthParams
from repro.execution.hardware import ClusterSpec
from repro.execution.runtime_log import JobRecord, OperatorBlock, OperatorRows
from repro.execution.trace import stage_finish_times, stage_seconds, stage_work
from repro.features.extract import operator_row
from repro.features.table import FeatureTable
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph


@dataclass(frozen=True)
class JobResult:
    """Outcome of simulating one job."""

    record: JobRecord
    stage_latencies: tuple[float, ...]

    @property
    def latency(self) -> float:
        return self.record.latency_seconds

    @property
    def cpu_seconds(self) -> float:
        return self.record.cpu_seconds


class ExecutionSimulator:
    """Simulates job executions on one cluster.

    The same simulator instance must be reused across a workload so that the
    hidden-multiplier cache stays warm; results are deterministic given the
    seed and the (job_id, day) pair of each run.
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

    def run_job(
        self,
        plan: PhysicalOp,
        job_id: str,
        template_id: str = "",
        day: int = 1,
        is_adhoc: bool = False,
        estimator: CardinalityEstimator | None = None,
        with_noise: bool = True,
    ) -> JobResult:
        """Execute ``plan`` and return its job record.

        Args:
            estimator: the cardinality estimator whose *estimates* are logged
                as features (default: a fresh one; reusing one across jobs is
                fine).  The actual latencies always use true cardinalities.
            with_noise: disable for the deterministic oracle used in tests.
        """
        estimator = estimator or CardinalityEstimator()
        noise_rng = (
            self._rngs.child("noise", job_id, day) if with_noise else None
        )

        rows: list[tuple[float, ...]] = []
        bundles: list[SignatureBundle] = []
        op_types: list[str] = []
        template_tags: list[str] = []
        op_latencies: list[float] = []
        output_cards: list[float] = []
        input_cards: list[float] = []
        cpus: list[float] = []
        latencies: dict[int, float] = {}
        cpu_total = 0.0
        for op in plan.walk():
            bundles.append(SignatureBundle.of(op))
            latency = self.ground_truth.exclusive_latency(op, rng=noise_rng)
            cpu = self.ground_truth.cpu_seconds(op, latency)
            cpu_total += cpu
            latencies[id(op)] = latency
            op_types.append(op.op_type.value)
            template_tags.append(op.template_tag)
            rows.append(operator_row(op, estimator))
            op_latencies.append(latency)
            output_cards.append(op.true_card)
            input_cards.append(op.input_card)
            cpus.append(cpu)
        n = len(rows)
        features = FeatureTable.from_rows(rows, bundles)
        block = OperatorBlock(
            table=FeatureTable(
                features=features.features,
                signatures=features.signatures,
                latency=np.array(op_latencies, dtype=float),
                day=np.full(n, day, dtype=np.int64),
                cluster=(self.cluster.name,) * n,
                is_adhoc=np.full(n, is_adhoc, dtype=bool),
            ),
            job_id=(job_id,) * n,
            op_type=tuple(op_types),
            template_tag=tuple(template_tags),
            actual_output_card=np.array(output_cards, dtype=float),
            actual_input_card=np.array(input_cards, dtype=float),
            cpu_seconds=np.array(cpus, dtype=float),
        )

        stage_latencies, job_latency = self._stage_critical_path(plan, latencies)
        input_bytes = sum(
            leaf.true_card * leaf.row_bytes for leaf in plan.walk() if not leaf.children
        )
        record = JobRecord(
            job_id=job_id,
            template_id=template_id,
            cluster=self.cluster.name,
            day=day,
            is_adhoc=is_adhoc,
            latency_seconds=job_latency,
            cpu_seconds=cpu_total,
            input_bytes=input_bytes,
            operators=OperatorRows(block, 0, n),
        )
        return JobResult(record=record, stage_latencies=tuple(stage_latencies))

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
