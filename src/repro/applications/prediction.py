"""Job-level performance prediction from the learned cost models.

The paper's evaluation scores Cleo on *operator* costs; a production
deployment mostly consumes them aggregated to the job level: "Examples
include performance prediction [39], allocating resources to queries [25]"
(Section 6.7).  This module prices a plan's operators in one
:meth:`~repro.core.cost_model.CleoCostModel.price_operators` call and feeds
the learned seconds into :func:`~repro.execution.trace.timeline` — the stage
rule and :class:`~repro.execution.trace.Timeline` type the simulator's own
traces use: stage duration is its operators' exclusive costs plus the fixed
start-up charge, job latency the critical path over the stage DAG, and
total processing time each stage's operator cost across its partitions.

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
from repro.execution.trace import Timeline, timeline
from repro.plan.physical import PhysicalOp
from repro.serving.service import CleoService

_EPS = 1e-9


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
        predictor: a :class:`~repro.serving.service.CleoService` (its caches
            are shared) or bare trained models, which are wrapped in one.
        estimator: the cardinality estimator providing compile-time
            statistics; a fresh default estimator when omitted.
    """

    def __init__(
        self,
        predictor: CleoService | CleoPredictor,
        estimator: CardinalityEstimator | None = None,
    ) -> None:
        self.service = CleoService.ensure(predictor)
        self.cost_model = self.service.cost_model()
        self.estimator = estimator or CardinalityEstimator()
        self._log_ratios: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Point prediction
    # ------------------------------------------------------------------ #

    def operator_seconds(self, plan: PhysicalOp) -> np.ndarray:
        """Learned exclusive seconds of every operator, in walk order: one
        :meth:`~repro.core.cost_model.CleoCostModel.price_operators` call."""
        return self.cost_model.price_operators(list(plan.walk()), self.estimator)

    def predict(self, plan: PhysicalOp) -> Timeline:
        """Predicted stage timeline, latency, and CPU time for ``plan``."""
        return timeline(plan, self.operator_seconds(plan).tolist())

    # ------------------------------------------------------------------ #
    # Calibration and intervals
    # ------------------------------------------------------------------ #

    def calibrate(self, log: RunLog) -> CalibrationReport:
        """Fit the residual distribution on a held-out run log.

        Collects ``log((actual + 1) / (predicted + 1))`` per operator record
        — the same log-ratio the MSLE training loss penalizes — and stores
        the empirical distribution for interval construction.  The log's
        cached table is priced in one ``predict_table`` call.

        Operator-level residuals transfer only approximately to job-level
        intervals (aggregation cancels some errors and critical-path
        structure adds others); when retained plans are available, prefer
        :meth:`calibrate_jobs`.
        """
        table = log.to_table()
        predicted = self.service.predict_table(table).tolist()
        ratios = [
            math.log((actual + 1.0) / (value + 1.0))
            for actual, value in zip(table.latency.tolist(), predicted)
        ]
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
        point = self.predict(plan).latency_seconds
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
            out[job_id] = (self.predict(plan).latency_seconds, actual)
        return out
