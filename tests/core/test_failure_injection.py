"""Failure-injection tests: corrupted logs, degenerate workloads, extremes.

Production feedback loops ingest whatever the cluster logged — including
days dominated by stragglers, machine failures, or telemetry bugs.  These
tests corrupt the training data in controlled ways and assert the pipeline
degrades gracefully instead of exploding.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ModelKind
from repro.core.learned_model import ResourceProfile
from repro.core.predictor import CleoPredictor
from repro.core.regression_control import ModelQuarantine
from repro.core.robustness import evaluate_predictor_on_log
from repro.core.trainer import CleoTrainer
from repro.execution.runtime_log import JobRecord, RunLog
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.serving import CleoService


def corrupt_log(log: RunLog, factor: float, every: int = 1) -> RunLog:
    """A copy of ``log`` with every ``every``-th operator label scaled."""
    corrupted = RunLog()
    for job in log:
        operators = tuple(
            dataclasses.replace(record, actual_latency=record.actual_latency * factor)
            if i % every == 0
            else record
            for i, record in enumerate(job.operators)
        )
        corrupted.append(dataclasses.replace(job, operators=operators))
    return corrupted


class TestCorruptedLabels:
    def test_outlier_labels_survive_training(self, tiny_bundle):
        """100x outliers on 1 in 5 labels: training completes, errors bounded.

        The MSLE loss (Section 3.2) was chosen exactly because big data logs
        contain large label outliers from stragglers and failures.
        """
        poisoned = corrupt_log(tiny_bundle.log.filter(days=[1, 2]), 100.0, every=5)
        predictor = CleoTrainer().train(
            poisoned, individual_days=[1, 2], combined_days=[2]
        )
        clean_test = tiny_bundle.test_log()
        quality = evaluate_predictor_on_log(predictor, clean_test)
        assert math.isfinite(quality.median_error_pct)
        # Degraded, but still far from the default model's ~200%+ regime.
        assert quality.median_error_pct < 150.0

    def test_quarantine_removes_models_trained_on_garbage(self, tiny_bundle):
        """A uniformly 50x-inflated training day produces models the
        quarantine pass then removes against honest data."""
        poisoned = corrupt_log(tiny_bundle.log.filter(days=[1, 2]), 50.0)
        predictor = CleoTrainer().train(
            poisoned, individual_days=[1, 2], combined_days=[2]
        )
        before = predictor.store.count()
        report = ModelQuarantine(tolerance_factor=4.0).audit(
            predictor.store, tiny_bundle.test_log()
        )
        assert report.total_removed > before * 0.5
        assert predictor.store.count() == before - report.total_removed

    def test_honest_models_pass_quarantine(self, tiny_bundle, tiny_predictor):
        import copy

        store_copy = copy.deepcopy(tiny_predictor.store)
        report = ModelQuarantine(tolerance_factor=4.0).audit(
            store_copy, tiny_bundle.test_log()
        )
        assert report.total_removed <= store_copy.count() * 0.05


class TestDegenerateWorkloads:
    def test_single_day_log_still_trains(self, tiny_bundle):
        one_day = tiny_bundle.log.filter(days=[1])
        predictor = CleoTrainer().train(one_day)
        quality = evaluate_predictor_on_log(predictor, tiny_bundle.test_log())
        assert math.isfinite(quality.median_error_pct)

    def test_single_job_log_trains_operator_models_only(self, tiny_bundle):
        job = next(iter(tiny_bundle.log))
        log = RunLog()
        log.append(job)
        predictor = CleoTrainer().train(log)
        # One job cannot hit the 5-occurrence threshold for most strict
        # subgraph templates, but repeated operators may qualify.
        assert predictor.store.count(ModelKind.OP_SUBGRAPH) <= predictor.store.count(
            ModelKind.OPERATOR
        ) + len(job.operators)
        service = CleoService(predictor, prediction_cache_size=0)
        assert np.isfinite(service.predict_records(job.operators)).all()

    def test_empty_store_predictor_uses_fallback(self, tiny_bundle):
        from repro.core.model_store import ModelStore

        predictor = CleoPredictor(store=ModelStore(), fallback_cost=7.5)
        record = next(tiny_bundle.log.operator_records())
        assert CleoService(predictor).predict_records([record])[0] == 7.5


class TestExtremeFeatures:
    @given(
        card=st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
        partitions=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_predictions_finite_on_extreme_features(
        self, tiny_bundle, tiny_predictor, card, partitions
    ):
        """Inputs far outside the training range never break a prediction."""
        record = next(tiny_bundle.log.operator_records())
        features = FeatureInput(
            input_card=card,
            base_card=card,
            output_card=card,
            avg_row_bytes=64.0,
            partition_count=float(partitions),
        )
        # Output repair off: the models' own answer must be finite.
        service = CleoService(
            tiny_predictor, prediction_cache_size=0, validate_outputs=False
        )
        table = FeatureTable.from_inputs([features], [record.signatures])
        value = service.predict_inputs(table)[0]
        assert math.isfinite(value)
        assert value >= 0.0


class TestResourceProfileProperties:
    @given(
        theta_p=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        theta_c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        theta_0=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        probe=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=100, deadline=None)
    def test_optimum_never_beaten_by_probe(self, theta_p, theta_c, theta_0, probe):
        """The three-sign-case optimum is at least as cheap as any probe."""
        profile = ResourceProfile(theta_p=theta_p, theta_c=theta_c, theta_0=theta_0)
        chosen = profile.optimal_partitions(3000)
        assert 1 <= chosen <= 3000
        assert profile.cost_at(chosen) <= profile.cost_at(probe) + 1e-6 * max(
            1.0, abs(profile.cost_at(probe))
        )

    @given(
        theta_p=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        theta_c=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_interior_optimum_matches_calculus(self, theta_p, theta_c):
        """Positive thetas: optimum ~ sqrt(theta_p / theta_c), clamped."""
        profile = ResourceProfile(theta_p=theta_p, theta_c=theta_c, theta_0=0.0)
        chosen = profile.optimal_partitions(3000)
        stationary = math.sqrt(theta_p / theta_c)
        assert chosen == min(3000, max(1, round(stationary))) or profile.cost_at(
            chosen
        ) <= profile.cost_at(min(3000, max(1, round(stationary))))
