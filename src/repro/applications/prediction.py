"""Job-level performance prediction from the learned cost models.

The paper's evaluation scores Cleo on *operator* costs; a production
deployment mostly consumes them aggregated to the job level: "Examples
include performance prediction [39], allocating resources to queries [25]"
(Section 6.7).  This module rolls per-operator predictions up the stage
graph exactly like the execution substrate does — stage duration is the sum
of its operators' exclusive costs plus the fixed stage-startup charge, job
latency is the critical path over the stage DAG, and total processing time
sums each operator's cost across its partitions.

Point predictions come with empirical confidence intervals: the predictor
is calibrated on a held-out :class:`~repro.execution.runtime_log.RunLog`
by collecting the log-ratio distribution of actual over predicted operator
latencies, and an interval at coverage ``q`` applies that distribution's
central-``q`` quantile band multiplicatively.  This is conformal-style
calibration — no distributional assumption beyond exchangeability of the
residuals between calibration and prediction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cardinality.estimator import CardinalityEstimator
from repro.common.errors import ValidationError
from repro.core.predictor import CleoPredictor
from repro.execution.runtime_log import RunLog
from repro.execution.simulator import STAGE_STARTUP_SECONDS
from repro.features.extract import feature_input_for
from repro.plan.physical import PhysicalOp
from repro.plan.signatures import SignatureBundle
from repro.plan.stages import build_stage_graph
from repro.serving.service import CleoService, PredictionRequest

_EPS = 1e-9


@dataclass(frozen=True)
class StageEstimate:
    """Predicted timeline entry for one stage of a plan."""

    index: int
    partition_count: int
    operator_types: tuple[str, ...]
    predicted_seconds: float
    predicted_cpu_seconds: float
    start_seconds: float
    finish_seconds: float
    on_critical_path: bool


@dataclass(frozen=True)
class JobPrediction:
    """Predicted end-to-end performance of one physical plan."""

    stages: tuple[StageEstimate, ...]
    latency_seconds: float
    cpu_seconds: float

    @property
    def critical_path(self) -> tuple[StageEstimate, ...]:
        return tuple(s for s in self.stages if s.on_critical_path)

    def bottleneck(self) -> StageEstimate:
        """The longest predicted stage on the critical path."""
        return max(self.critical_path, key=lambda s: s.predicted_seconds)

    def describe(self) -> str:
        lines = [
            f"predicted latency: {self.latency_seconds:.1f}s, "
            f"cpu: {self.cpu_seconds / 3600.0:.2f}h, {len(self.stages)} stages"
        ]
        for stage in sorted(self.stages, key=lambda s: s.start_seconds):
            marker = "*" if stage.on_critical_path else " "
            lines.append(
                f" {marker} stage {stage.index:>2} "
                f"[{stage.start_seconds:8.1f} -> {stage.finish_seconds:8.1f}] "
                f"P={stage.partition_count:<5} {','.join(stage.operator_types)}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PredictionInterval:
    """A point prediction with a calibrated multiplicative band."""

    point: float
    low: float
    high: float
    coverage: float

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage < 1.0:
            raise ValidationError(f"coverage must be in (0, 1), got {self.coverage}")
        if not self.low <= self.point <= self.high:
            raise ValidationError(
                f"interval must bracket the point: {self.low} <= {self.point} <= {self.high}"
            )

    @property
    def width_factor(self) -> float:
        """Ratio of the band's ends — 1.0 means a degenerate point interval."""
        return self.high / max(self.low, _EPS)

    def contains(self, actual: float) -> bool:
        return self.low <= actual <= self.high


@dataclass(frozen=True)
class CalibrationReport:
    """Summary of one calibration pass over a held-out run log."""

    n_operators: int
    median_log_ratio: float
    log_ratio_quantiles: dict[float, float] = field(default_factory=dict)

    @property
    def median_ratio(self) -> float:
        """Multiplicative bias of the predictor (1.0 = unbiased)."""
        return math.exp(self.median_log_ratio)


class JobPerformancePredictor:
    """Rolls learned operator costs up to job latency and CPU-hours.

    Args:
        predictor: a :class:`~repro.serving.service.CleoService` (preferred:
            plan operators are priced through its batched, cached path), a
            trained :class:`CleoPredictor`, or any object with the scalar
            ``predict(features, signatures)`` surface.
        estimator: the cardinality estimator providing compile-time
            statistics; a fresh default estimator when omitted.
        stage_startup_seconds: fixed per-stage scheduling charge, matching
            the execution substrate's container-acquisition cost.
    """

    def __init__(
        self,
        predictor: CleoService | CleoPredictor,
        estimator: CardinalityEstimator | None = None,
        stage_startup_seconds: float = STAGE_STARTUP_SECONDS,
    ) -> None:
        self.predictor = predictor
        self.estimator = estimator or CardinalityEstimator()
        self.stage_startup_seconds = stage_startup_seconds
        self._log_ratios: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Point prediction
    # ------------------------------------------------------------------ #

    def predict(self, plan: PhysicalOp) -> JobPrediction:
        """Predicted stage timeline, latency, and CPU time for ``plan``."""
        graph = build_stage_graph(plan)

        ops = list(plan.walk())
        op_cost: dict[int, float] = {}
        batch = getattr(self.predictor, "predict_batch", None)
        if callable(batch):
            requests = [
                PredictionRequest(
                    feature_input_for(op, self.estimator), SignatureBundle.of(op)
                )
                for op in ops
            ]
            for op, cost in zip(ops, batch(requests)):
                op_cost[id(op)] = float(cost)
        else:
            for op in ops:
                features = feature_input_for(op, self.estimator)
                op_cost[id(op)] = self.predictor.predict(features, SignatureBundle.of(op))

        durations: dict[int, float] = {}
        cpu: dict[int, float] = {}
        for stage in graph.stages:
            total = sum(op_cost[id(op)] for op in stage.operators)
            durations[stage.index] = self.stage_startup_seconds + total
            cpu[stage.index] = total * stage.partition_count

        start: dict[int, float] = {}
        finish: dict[int, float] = {}
        for stage in graph.topological_order():
            start[stage.index] = max((finish[u] for u in stage.upstream), default=0.0)
            finish[stage.index] = start[stage.index] + durations[stage.index]

        critical: set[int] = set()
        current = max(finish, key=lambda idx: finish[idx])
        while True:
            critical.add(current)
            upstream = graph.stages[current].upstream
            if not upstream:
                break
            current = max(upstream, key=lambda idx: finish[idx])

        stages = tuple(
            StageEstimate(
                index=stage.index,
                partition_count=stage.partition_count,
                operator_types=tuple(op.op_type.value for op in stage.operators),
                predicted_seconds=durations[stage.index],
                predicted_cpu_seconds=cpu[stage.index],
                start_seconds=start[stage.index],
                finish_seconds=finish[stage.index],
                on_critical_path=stage.index in critical,
            )
            for stage in graph.stages
        )
        return JobPrediction(
            stages=stages,
            latency_seconds=max(finish.values()),
            cpu_seconds=float(sum(cpu.values())),
        )

    def predict_latency(self, plan: PhysicalOp) -> float:
        return self.predict(plan).latency_seconds

    # ------------------------------------------------------------------ #
    # Calibration and intervals
    # ------------------------------------------------------------------ #

    def calibrate(self, log: RunLog) -> CalibrationReport:
        """Fit the residual distribution on a held-out run log.

        Collects ``log((actual + 1) / (predicted + 1))`` per operator record
        — the same log-ratio the MSLE training loss penalizes — and stores
        the empirical distribution for interval construction.

        Operator-level residuals transfer only approximately to job-level
        intervals (aggregation cancels some errors and critical-path
        structure adds others); when retained plans are available, prefer
        :meth:`calibrate_jobs`.
        """
        ratios: list[float] = []
        for record in log.operator_records():
            predicted = self.predictor.predict_record(record)
            ratios.append(
                math.log((record.actual_latency + 1.0) / (predicted + 1.0))
            )
        return self._store_ratios(ratios, "calibration log contains no operator records")

    def calibrate_jobs(
        self, plans: dict[str, PhysicalOp], log: RunLog
    ) -> CalibrationReport:
        """Fit the residual distribution at the *job* level.

        Uses jobs present in both ``plans`` and ``log`` (e.g. from a
        workload runner with ``keep_plans=True``), comparing each job's
        predicted end-to-end latency with its logged actual latency — the
        exact quantity :meth:`predict_interval` brackets.

        The calibration log must be *held out from model training*: days
        the individual or combined models trained on have near-zero
        in-sample residuals, which yields intervals far too narrow for any
        future day.
        """
        ratios = [
            math.log((actual + 1.0) / (predicted + 1.0))
            for predicted, actual in self.validate_jobs(plans, log).values()
        ]
        return self._store_ratios(ratios, "no job appears in both plans and log")

    def _store_ratios(self, ratios: list[float], empty_message: str) -> CalibrationReport:
        if not ratios:
            raise ValidationError(empty_message)
        self._log_ratios = np.sort(np.asarray(ratios, dtype=float))
        quantiles = {
            q: float(np.quantile(self._log_ratios, q))
            for q in (0.05, 0.25, 0.5, 0.75, 0.95)
        }
        return CalibrationReport(
            n_operators=len(ratios),
            median_log_ratio=quantiles[0.5],
            log_ratio_quantiles=quantiles,
        )

    @property
    def is_calibrated(self) -> bool:
        return self._log_ratios is not None

    def predict_interval(
        self, plan: PhysicalOp, coverage: float = 0.9
    ) -> PredictionInterval:
        """Point latency prediction with a calibrated interval.

        The central-``coverage`` band of calibration log-ratios is applied
        multiplicatively to the point prediction.  Requires a prior
        :meth:`calibrate` call.
        """
        if self._log_ratios is None:
            raise ValidationError("predict_interval requires calibrate() first")
        if not 0.0 < coverage < 1.0:
            raise ValidationError(f"coverage must be in (0, 1), got {coverage}")
        point = self.predict_latency(plan)
        tail = (1.0 - coverage) / 2.0
        lo = float(np.quantile(self._log_ratios, tail))
        hi = float(np.quantile(self._log_ratios, 1.0 - tail))
        return PredictionInterval(
            point=point,
            low=min(point * math.exp(lo), point),
            high=max(point * math.exp(hi), point),
            coverage=coverage,
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate_jobs(
        self, plans: dict[str, PhysicalOp], log: RunLog
    ) -> dict[str, tuple[float, float]]:
        """Predicted vs actual job latency for jobs with retained plans.

        Args:
            plans: ``job_id -> physical plan`` (e.g. from a workload runner
                with ``keep_plans=True``).
            log: the run log holding the jobs' actual latencies.

        Returns:
            ``job_id -> (predicted_latency, actual_latency)`` for every job
            present in both inputs.
        """
        actuals = {job.job_id: job.latency_seconds for job in log}
        out: dict[str, tuple[float, float]] = {}
        for job_id, plan in plans.items():
            actual = actuals.get(job_id)
            if actual is None:
                continue
            out[job_id] = (self.predict_latency(plan), actual)
        return out
