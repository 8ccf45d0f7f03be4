"""Tests for query progress estimation (applications.progress)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.prediction import JobPerformancePredictor
from repro.applications.progress import (
    ProgressEstimator,
    evaluate_stage_count_baseline,
    stage_count_progress,
)
from repro.common.errors import ValidationError
from repro.execution.trace import StageTiming, Timeline, trace_job


def make_stage(index: int, start: float, finish: float) -> StageTiming:
    return StageTiming(
        index=index,
        partition_count=1,
        operator_types=("Extract",),
        upstream=(),
        seconds=finish - start,
        cpu_seconds=finish - start,
        start_seconds=start,
        finish_seconds=finish,
        on_critical_path=True,
    )


def make_timeline(*stages: StageTiming) -> Timeline:
    latency = max((s.finish_seconds for s in stages), default=0.0)
    return Timeline(stages=stages, latency_seconds=latency, cpu_seconds=latency)


@pytest.fixture()
def skewed_prediction() -> Timeline:
    """Two sequential stages: 90s of predicted work then 10s."""
    return make_timeline(make_stage(0, 0.0, 90.0), make_stage(1, 90.0, 100.0))


@pytest.fixture()
def matching_trace() -> Timeline:
    """The corresponding actual execution: 90s then 10s."""
    return make_timeline(make_stage(0, 0.0, 90.0), make_stage(1, 90.0, 100.0))


class TestProgressEstimator:
    def test_zero_at_start_one_at_end(self, skewed_prediction, matching_trace):
        estimator = ProgressEstimator(skewed_prediction)
        assert estimator.progress_at(matching_trace, 0.0) == pytest.approx(0.0)
        assert estimator.progress_at(matching_trace, 100.0) == pytest.approx(1.0)

    def test_monotone_in_wall_time(self, skewed_prediction, matching_trace):
        estimator = ProgressEstimator(skewed_prediction)
        times = np.linspace(0.0, 100.0, 21)
        values = [estimator.progress_at(matching_trace, t) for t in times]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_running_stage_prorated(self, skewed_prediction, matching_trace):
        estimator = ProgressEstimator(skewed_prediction)
        # Halfway through stage 0: 45 of 90 predicted seconds done.
        assert estimator.progress_at(matching_trace, 45.0) == pytest.approx(0.45)

    def test_perfect_prediction_tracks_diagonal(self, skewed_prediction, matching_trace):
        report = ProgressEstimator(skewed_prediction).evaluate(matching_trace)
        assert report.mean_abs_error < 1e-9
        assert report.max_abs_error < 1e-9

    def test_beats_stage_count_baseline_on_skewed_stages(
        self, skewed_prediction, matching_trace
    ):
        weighted = ProgressEstimator(skewed_prediction).evaluate(matching_trace)
        baseline = evaluate_stage_count_baseline(matching_trace)
        # Stage counting claims 0% until t=90 then jumps to 50%; the
        # work-weighted indicator follows wall-clock reality.
        assert weighted.mean_abs_error < baseline.mean_abs_error

    def test_remaining_seconds_decreases(self, skewed_prediction, matching_trace):
        estimator = ProgressEstimator(skewed_prediction)
        early = estimator.remaining_seconds(matching_trace, 10.0)
        late = estimator.remaining_seconds(matching_trace, 80.0)
        assert early > late >= 0.0

    def test_curve_shape(self, skewed_prediction, matching_trace):
        curve = ProgressEstimator(skewed_prediction).curve(matching_trace, points=11)
        assert len(curve) == 11
        fractions = [f for f, _ in curve]
        assert fractions[0] == pytest.approx(0.0)
        assert fractions[-1] == pytest.approx(1.0)

    def test_unknown_stage_rejected(self, skewed_prediction):
        estimator = ProgressEstimator(skewed_prediction)
        alien = make_timeline(make_stage(7, 0.0, 10.0))
        with pytest.raises(ValidationError):
            estimator.progress_at(alien, 5.0)

    def test_empty_prediction_rejected(self):
        empty = make_timeline()
        with pytest.raises(ValidationError):
            ProgressEstimator(empty)

    def test_too_few_curve_points_rejected(self, skewed_prediction, matching_trace):
        with pytest.raises(ValidationError):
            ProgressEstimator(skewed_prediction).curve(matching_trace, points=1)


class TestStageCountBaseline:
    def test_counts_finished_stages(self, matching_trace):
        assert stage_count_progress(matching_trace, 0.0) == pytest.approx(0.0)
        assert stage_count_progress(matching_trace, 95.0) == pytest.approx(0.5)
        assert stage_count_progress(matching_trace, 100.0) == pytest.approx(1.0)

    def test_empty_trace_is_complete(self):
        assert stage_count_progress(make_timeline(), 0.0) == 1.0

    def test_baseline_report_points_validated(self, matching_trace):
        with pytest.raises(ValidationError):
            evaluate_stage_count_baseline(matching_trace, points=1)


class TestEndToEndProgress:
    def test_on_simulated_job(self, tiny_bundle, tiny_predictor):
        job = next(iter(tiny_bundle.test_log()))
        plan = tiny_bundle.runner.plans[job.job_id]
        perf = JobPerformancePredictor(tiny_predictor, tiny_bundle.fresh_estimator())
        prediction = perf.predict(plan)
        trace = trace_job(tiny_bundle.runner.simulator, plan)
        estimator = ProgressEstimator(prediction)
        report = estimator.evaluate(trace)
        assert 0.0 <= report.mean_abs_error <= report.max_abs_error <= 1.0
        # A trained predictor should stay meaningfully close to the ideal
        # diagonal on a job from its own workload.
        assert report.mean_abs_error < 0.25
