"""Tests for job-level performance prediction (applications.prediction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.prediction import (
    JobPerformancePredictor,
    PredictionInterval,
)
from repro.common.errors import ValidationError
from repro.common.stats import pearson
from repro.execution.trace import STAGE_STARTUP_SECONDS
from repro.plan.stages import build_stage_graph
from repro.serving.service import CleoService


@pytest.fixture()
def perf(tiny_bundle, tiny_predictor):
    return JobPerformancePredictor(tiny_predictor, tiny_bundle.fresh_estimator())


@pytest.fixture()
def any_plan(tiny_bundle):
    job = next(iter(tiny_bundle.test_log()))
    return tiny_bundle.runner.plans[job.job_id]


class TestJobPrediction:
    def test_prediction_is_positive(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        assert prediction.latency_seconds > 0
        assert prediction.cpu_seconds > 0

    def test_stage_count_matches_stage_graph(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        assert len(prediction.stages) == len(build_stage_graph(any_plan))

    def test_latency_bounded_by_stage_durations(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        longest = max(s.seconds for s in prediction.stages)
        total = sum(s.seconds for s in prediction.stages)
        assert longest <= prediction.latency_seconds <= total + 1e-9

    def test_critical_path_is_nonempty_and_flagged(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        critical = prediction.critical_path
        assert critical
        assert all(s.on_critical_path for s in critical)
        assert prediction.bottleneck() in critical

    def test_critical_path_durations_sum_to_latency(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        total = sum(s.seconds for s in prediction.critical_path)
        assert total == pytest.approx(prediction.latency_seconds, rel=1e-9)

    def test_cpu_charges_partitions(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        for stage in prediction.stages:
            operators_cost = stage.seconds - STAGE_STARTUP_SECONDS
            assert stage.cpu_seconds == pytest.approx(
                operators_cost * stage.partition_count, rel=1e-9
            )

    def test_timeline_respects_dependencies(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        graph = build_stage_graph(any_plan)
        finish = {s.index: s.finish_seconds for s in prediction.stages}
        start = {s.index: s.start_seconds for s in prediction.stages}
        for stage in graph.stages:
            for upstream in stage.upstream:
                assert start[stage.index] >= finish[upstream] - 1e-9

    def test_describe_mentions_every_stage(self, perf, any_plan):
        prediction = perf.predict(any_plan)
        text = prediction.describe()
        assert "latency" in text
        assert text.count("stage ") == len(prediction.stages)

    def test_deterministic(self, perf, any_plan):
        first = perf.predict(any_plan)
        second = perf.predict(any_plan)
        assert first.latency_seconds == second.latency_seconds
        assert first.cpu_seconds == second.cpu_seconds


class TestPredictionQuality:
    def test_predictions_track_actual_job_latency(self, perf, tiny_bundle):
        pairs = perf.validate_jobs(tiny_bundle.runner.plans, tiny_bundle.test_log())
        assert len(pairs) > 5
        predicted = np.array([p for p, _ in pairs.values()])
        actual = np.array([a for _, a in pairs.values()])
        assert pearson(predicted, actual) > 0.5

    def test_validate_jobs_skips_unknown_jobs(self, perf, tiny_bundle, any_plan):
        pairs = perf.validate_jobs({"not-a-job": any_plan}, tiny_bundle.test_log())
        assert pairs == {}


class TestCalibration:
    def test_calibration_report_shape(self, perf, tiny_bundle):
        report = perf.calibrate(tiny_bundle.test_log())
        assert report.n_operators > 100
        quantiles = report.log_ratio_quantiles
        assert quantiles[0.05] <= quantiles[0.25] <= quantiles[0.5]
        assert quantiles[0.5] <= quantiles[0.75] <= quantiles[0.95]
        assert report.median_ratio > 0

    def test_calibration_through_a_service_matches_the_bare_predictor(
        self, perf, tiny_bundle, tiny_predictor
    ):
        # The documented way to build one (applications, ext_applications)
        # hands it a CleoService; `calibrate` prices records through it.
        served = JobPerformancePredictor(
            CleoService(tiny_predictor), tiny_bundle.fresh_estimator()
        )
        log = tiny_bundle.test_log()
        assert served.calibrate(log) == perf.calibrate(log)

    def test_interval_brackets_point(self, perf, tiny_bundle, any_plan):
        perf.calibrate(tiny_bundle.test_log())
        interval = perf.predict_interval(any_plan, coverage=0.9)
        assert interval.low <= interval.point <= interval.high
        assert interval.width_factor >= 1.0

    def test_wider_coverage_means_wider_interval(self, perf, tiny_bundle, any_plan):
        perf.calibrate(tiny_bundle.test_log())
        narrow = perf.predict_interval(any_plan, coverage=0.5)
        wide = perf.predict_interval(any_plan, coverage=0.95)
        assert wide.low <= narrow.low
        assert wide.high >= narrow.high

    def test_job_calibrated_intervals_cover_actual_latencies(self, perf, tiny_bundle):
        # Calibration must be held out from training (days 1-2 are
        # in-sample for the tiny predictor), so split day 3 in half:
        # even-indexed jobs calibrate, odd-indexed jobs evaluate.
        from repro.execution.runtime_log import RunLog

        day3 = list(tiny_bundle.test_log())
        calibration_log = RunLog()
        calibration_log.extend(day3[::2])
        evaluation = day3[1::2]
        perf.calibrate_jobs(tiny_bundle.runner.plans, calibration_log)
        covered = sum(
            perf.predict_interval(
                tiny_bundle.runner.plans[job.job_id], coverage=0.9
            ).contains(job.latency_seconds)
            for job in evaluation
        )
        # Exchangeable calibration/evaluation halves: expect roughly the
        # nominal 90%; demand a comfortable supermajority.
        assert covered / len(evaluation) > 0.7

    def test_calibrate_jobs_requires_overlap(self, perf, tiny_bundle):
        with pytest.raises(ValidationError):
            perf.calibrate_jobs({}, tiny_bundle.test_log())

    def test_interval_without_calibration_raises(self, perf, any_plan):
        with pytest.raises(ValidationError):
            perf.predict_interval(any_plan)

    def test_bad_coverage_raises(self, perf, tiny_bundle, any_plan):
        perf.calibrate(tiny_bundle.test_log())
        with pytest.raises(ValidationError):
            perf.predict_interval(any_plan, coverage=1.5)

    def test_is_calibrated_flag(self, perf, tiny_bundle):
        assert not perf.is_calibrated
        perf.calibrate(tiny_bundle.test_log())
        assert perf.is_calibrated


class TestPredictionInterval:
    def test_validates_ordering(self):
        with pytest.raises(ValidationError):
            PredictionInterval(point=5.0, low=6.0, high=7.0, coverage=0.9)

    def test_validates_coverage(self):
        with pytest.raises(ValidationError):
            PredictionInterval(point=5.0, low=4.0, high=6.0, coverage=0.0)

    def test_contains(self):
        interval = PredictionInterval(point=5.0, low=4.0, high=6.0, coverage=0.9)
        assert interval.contains(4.5)
        assert not interval.contains(7.0)
