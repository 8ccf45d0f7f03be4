"""Query progress estimation from learned cost models.

Section 6.7 cites "estimating the progress of a query especially in
server-less query processors [29]" as a cost-model use case.  Progress
indicators answer "how far along is this job?" while it runs; their quality
hinges on how work is weighted.  Counting finished stages treats a
ten-second stage and a ten-minute stage alike; weighting stages by their
*predicted cost* tracks wall-clock reality much more closely when the
predictions are good — which is exactly what the learned models provide.

The estimator compares two :class:`~repro.execution.trace.Timeline` values
of the same plan — the learned prediction
(:meth:`~repro.applications.prediction.JobPerformancePredictor.predict`) and
the executed trace (:func:`~repro.execution.trace.trace_job`); stage indices
align because both derive from the same stage graph.  At any wall-clock
instant, completed stages contribute their full predicted weight and
running stages a prorated share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import ValidationError
from repro.execution.trace import Timeline


def stage_count_progress(trace: Timeline, wall_seconds: float) -> float:
    """Baseline indicator: fraction of stages finished by ``wall_seconds``."""
    if not trace.stages:
        return 1.0
    finished = sum(1 for s in trace.stages if s.finish_seconds <= wall_seconds)
    return finished / len(trace.stages)


@dataclass(frozen=True)
class ProgressReport:
    """Quality summary of a progress indicator over one traced job.

    ``mean_abs_error`` / ``max_abs_error`` measure deviation from the ideal
    indicator (true elapsed-work fraction) sampled uniformly in wall time.
    """

    samples: int
    mean_abs_error: float
    max_abs_error: float


class ProgressEstimator:
    """Work-weighted progress indicator for one executing job."""

    def __init__(self, prediction: Timeline) -> None:
        if not prediction.stages:
            raise ValidationError("prediction has no stages")
        self.prediction = prediction
        self._weight = {
            stage.index: max(stage.seconds, 0.0)
            for stage in prediction.stages
        }
        self._total = sum(self._weight.values())
        if self._total <= 0:
            raise ValidationError("prediction has no positive stage weight")

    # ------------------------------------------------------------------ #
    # Point queries
    # ------------------------------------------------------------------ #

    def progress_at(self, trace: Timeline, wall_seconds: float) -> float:
        """Estimated completed-work fraction at ``wall_seconds``.

        Stage indices of ``trace`` must match the prediction's (same plan);
        unknown stages are rejected rather than silently ignored.
        """
        done = 0.0
        for stage in trace.stages:
            weight = self._weight.get(stage.index)
            if weight is None:
                raise ValidationError(
                    f"trace stage {stage.index} is unknown to the prediction"
                )
            # The span as scheduled (``seconds`` may differ in the last bit).
            span = stage.finish_seconds - stage.start_seconds
            if stage.finish_seconds <= wall_seconds:
                done += weight
            elif stage.start_seconds < wall_seconds and span > 0:
                done += weight * (wall_seconds - stage.start_seconds) / span
        return min(1.0, done / self._total)

    def remaining_seconds(self, trace: Timeline, wall_seconds: float) -> float:
        """Predicted wall time left, assuming predicted pace continues.

        Scales the predicted total by the share of work still outstanding.
        A job past its predicted end but not finished reports the full
        outstanding share rather than a negative remainder.
        """
        outstanding = 1.0 - self.progress_at(trace, wall_seconds)
        return outstanding * self.prediction.latency_seconds

    # ------------------------------------------------------------------ #
    # Whole-trace evaluation
    # ------------------------------------------------------------------ #

    def curve(self, trace: Timeline, points: int = 50) -> list[tuple[float, float]]:
        """``(wall_fraction, estimated_progress)`` samples over the run."""
        return _curve(self.progress_at, trace, points)

    def evaluate(self, trace: Timeline, points: int = 50) -> ProgressReport:
        """Deviation of this indicator from ideal progress.

        The ideal indicator reports exactly the elapsed fraction of the
        job's (unknown ahead of time) total latency; a perfect predictor
        with uniform pacing would sit on that diagonal.
        """
        return _deviation(self.curve(trace, points))


def evaluate_stage_count_baseline(trace: Timeline, points: int = 50) -> ProgressReport:
    """The stage-count indicator's deviation from ideal, for comparison."""
    return _deviation(_curve(stage_count_progress, trace, points))


def _curve(
    progress: Callable[[Timeline, float], float], trace: Timeline, points: int
) -> list[tuple[float, float]]:
    """``progress`` sampled at ``points`` evenly spaced fractions of the run."""
    if points < 2:
        raise ValidationError("curve needs at least two points")
    total = trace.latency_seconds
    return [
        (float(frac), progress(trace, frac * total)) for frac in np.linspace(0.0, 1.0, points)
    ]


def _deviation(curve: list[tuple[float, float]]) -> ProgressReport:
    errors = [abs(estimated - frac) for frac, estimated in curve]
    return ProgressReport(
        samples=len(curve),
        mean_abs_error=float(np.mean(errors)),
        max_abs_error=float(np.max(errors)),
    )
