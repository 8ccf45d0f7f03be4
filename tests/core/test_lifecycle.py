"""Tests for model lifecycle management (core.lifecycle)."""

from __future__ import annotations

import math

import pytest

from repro.common.errors import ValidationError
from repro.core.lifecycle import (
    LifecycleManager,
    ModelRegistry,
    ModelVersion,
    RetrainPolicy,
)
from repro.core.predictor import CleoPredictor
from repro.core.model_store import ModelStore


def make_dummy_predictor() -> CleoPredictor:
    return CleoPredictor(store=ModelStore())


class TestRetrainPolicy:
    def test_defaults_match_paper(self):
        policy = RetrainPolicy()
        assert policy.window_days == 2
        assert policy.frequency_days == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_days": 0},
            {"frequency_days": 0},
            {"drift_threshold_pct": -5.0},
            {"regression_factor": 1.0},
            {"drift_window_days": 0},
            {"drift_degradation_factor": 1.0},
            {"drift_degradation_factor": 0.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetrainPolicy(**kwargs)


class TestModelRegistry:
    def test_publish_activates(self):
        registry = ModelRegistry()
        version = registry.publish(make_dummy_predictor(), day=3, window=(1, 2))
        assert registry.active() is version
        assert version.version == 1

    def test_versions_increment(self):
        registry = ModelRegistry()
        registry.publish(make_dummy_predictor(), day=3, window=(1, 2))
        second = registry.publish(make_dummy_predictor(), day=13, window=(11, 12))
        assert second.version == 2
        assert registry.version_count == 2

    def test_rollback_reactivates_previous(self):
        registry = ModelRegistry()
        first = registry.publish(make_dummy_predictor(), day=3, window=(1, 2))
        registry.publish(make_dummy_predictor(), day=13, window=(11, 12))
        rolled = registry.rollback()
        assert rolled is first
        assert registry.active() is first

    def test_rollback_without_history_fails(self):
        registry = ModelRegistry()
        with pytest.raises(ValidationError):
            registry.rollback()
        registry.publish(make_dummy_predictor(), day=1, window=(1,))
        with pytest.raises(ValidationError):
            registry.rollback()

    def test_active_requires_publish(self):
        with pytest.raises(ValidationError):
            ModelRegistry().active()

    def test_get_by_version(self):
        registry = ModelRegistry()
        version = registry.publish(make_dummy_predictor(), day=3, window=(1, 2))
        assert registry.get(1) is version
        with pytest.raises(ValidationError):
            registry.get(99)

    def test_history_preserves_rollbacked_versions(self):
        registry = ModelRegistry()
        registry.publish(make_dummy_predictor(), day=3, window=(1, 2))
        registry.publish(make_dummy_predictor(), day=13, window=(11, 12))
        registry.rollback()
        assert registry.version_count == 2
        assert len(registry.history()) == 2

    def test_rollback_then_publish_keeps_history_ordered(self):
        """Publishing after a rollback appends — it never truncates the
        discarded version, and numbering continues past it."""
        registry = ModelRegistry()
        registry.publish(make_dummy_predictor(), day=1, window=(0,))
        second = registry.publish(make_dummy_predictor(), day=2, window=(1,))
        registry.rollback()
        third = registry.publish(make_dummy_predictor(), day=3, window=(2,))
        assert registry.active() is third
        assert third.version == 3
        assert [v.version for v in registry.history()] == [1, 2, 3]
        assert registry.get(2) is second  # the rolled-back one is inspectable
        # A rollback from v3 lands on v2 (list order, not activation order).
        assert registry.rollback() is second

    def test_describe(self):
        version = ModelVersion(
            version=4, trained_on_day=20, window=(18, 19),
            predictor=make_dummy_predictor(),
        )
        text = version.describe()
        assert "v4" in text and "day 20" in text


class TestLifecycleManager:
    @pytest.fixture(scope="class")
    def outcomes_and_manager(self, tiny_bundle):
        manager = LifecycleManager(
            policy=RetrainPolicy(window_days=1, frequency_days=2)
        )
        outcomes = manager.run(tiny_bundle.log)
        return outcomes, manager

    def test_one_outcome_per_scored_day(self, outcomes_and_manager, tiny_bundle):
        outcomes, _ = outcomes_and_manager
        # window_days=1 -> days 2 and 3 are scored.
        assert [o.day for o in outcomes] == tiny_bundle.log.days[1:]

    def test_first_day_always_retrains(self, outcomes_and_manager):
        outcomes, _ = outcomes_and_manager
        assert outcomes[0].retrained

    def test_scoring_is_out_of_sample(self, outcomes_and_manager, tiny_bundle):
        outcomes, manager = outcomes_and_manager
        for outcome in outcomes:
            version = manager.registry.get(outcome.active_version)
            assert outcome.day not in version.window

    def test_quality_is_meaningful(self, outcomes_and_manager):
        outcomes, _ = outcomes_and_manager
        for outcome in outcomes:
            assert outcome.median_error_pct < 100.0
            assert outcome.pearson > 0.5

    def test_respects_frequency(self, tiny_bundle):
        manager = LifecycleManager(
            policy=RetrainPolicy(window_days=1, frequency_days=10)
        )
        outcomes = manager.run(tiny_bundle.log)
        # First scored day trains; day 3 is only 1 < 10 days later.
        assert [o.retrained for o in outcomes] == [True, False]
        assert manager.registry.version_count == 1

    def test_drift_triggers_early_retrain(self, tiny_bundle):
        # An absurdly low threshold guarantees the drift path fires.
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1, frequency_days=100, drift_threshold_pct=1e-6
            )
        )
        outcomes = manager.run(tiny_bundle.log)
        assert outcomes[1].retrained
        assert manager.registry.version_count == 2

    def test_too_short_log_rejected(self, tiny_bundle):
        manager = LifecycleManager(policy=RetrainPolicy(window_days=5))
        with pytest.raises(ValidationError):
            manager.run(tiny_bundle.log)

    def test_unknown_day_rejected(self, tiny_bundle):
        manager = LifecycleManager(policy=RetrainPolicy(window_days=1))
        with pytest.raises(ValidationError):
            manager.run(tiny_bundle.log, days=[99])

    def test_regression_gate_disabled(self, tiny_bundle):
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1, frequency_days=1, regression_factor=None
            )
        )
        outcomes = manager.run(tiny_bundle.log)
        assert all(not o.rolled_back for o in outcomes)

    def test_tight_regression_gate_can_roll_back(self, tiny_bundle):
        # regression_factor barely above 1: any fresh version scoring even
        # slightly worse than its predecessor on the gate day is discarded.
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1, frequency_days=1, regression_factor=1.0000001
            )
        )
        outcomes = manager.run(tiny_bundle.log)
        # Rollback may or may not fire depending on which version wins the
        # day; the invariant is consistency between flags and the registry.
        rollbacks = sum(o.rolled_back for o in outcomes)
        retrains = sum(o.retrained for o in outcomes)
        assert manager.registry.version_count == retrains
        assert rollbacks <= retrains
        for outcome in outcomes:
            if outcome.rolled_back:
                version = manager.registry.get(outcome.active_version)
                assert version.trained_on_day < outcome.day


class TestRollbackRearmsRetrain:
    def test_rollback_rearms_early_retrain_trigger(self, tiny_bundle, monkeypatch):
        """Section 6.7 gate rollback must leave the retrain trigger armed.

        Pre-fix, ``step`` cleared ``_drift_pending`` and stamped
        ``_last_train_day`` *before* the gate ran, so a rolled-back retrain
        silenced its own trigger and the stale predecessor served for up to
        ``frequency_days`` — violating the "self-correct on the next cycle"
        contract.
        """
        from dataclasses import replace as dc_replace

        import repro.core.lifecycle as lifecycle_mod

        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1, frequency_days=100, regression_factor=1.5
            )
        )
        days = tiny_bundle.log.days
        first = manager.step(tiny_bundle.log, days[1])
        assert first.retrained and not first.rolled_back

        # Pretend yesterday drifted, so today retrains early — and force
        # the fresh version to look regressed so the gate rolls it back.
        manager._drift_pending = True
        real_eval = lifecycle_mod.evaluate_predictor_on_log

        def biased_eval(predictor, log, name=""):
            quality = real_eval(predictor, log, name=name)
            if name == "fresh":
                return dc_replace(
                    quality, median_error_pct=quality.median_error_pct * 10 + 1000
                )
            return quality

        monkeypatch.setattr(
            lifecycle_mod, "evaluate_predictor_on_log", biased_eval
        )
        outcome = manager.step(tiny_bundle.log, days[2])
        assert outcome.retrained and outcome.rolled_back
        # The stale predecessor is serving again; the early-retrain trigger
        # must be armed so the very next day tries again.
        assert manager._drift_pending is True
        assert manager._should_retrain(days[2] + 1)


class TestRollingDriftTrigger:
    """The relative (error-degradation) drift trigger, chaos-tested.

    A workload whose runtimes shift 50x mid-stream must arm an early
    retrain from the *relative* degradation of the rolling median error —
    no absolute ``drift_threshold_pct`` budget is configured — and the
    fresh version (trained on post-shift data) must pass the Section 6.7
    pre-production gate and recover the error level.
    """

    @staticmethod
    def _restamped(jobs, day, factor=1.0, tag=""):
        """Jobs re-stamped onto ``day`` with latencies scaled ``factor``x."""
        from dataclasses import replace as dc_replace

        out = []
        for job in jobs:
            ops = tuple(
                dc_replace(
                    op, day=day, actual_latency=op.actual_latency * factor
                )
                for op in job.operators
            )
            out.append(
                dc_replace(
                    job,
                    job_id=f"{job.job_id}{tag}",
                    day=day,
                    latency_seconds=job.latency_seconds * factor,
                    operators=ops,
                )
            )
        return out

    @pytest.fixture(scope="class")
    def drifted_log(self, tiny_bundle):
        """Days 1-2 clean; from day 3 on every runtime is 50x slower."""
        from repro.execution.runtime_log import RunLog

        days = tiny_bundle.log.days
        d1 = tiny_bundle.log.filter(days=[days[0]]).jobs
        d2 = tiny_bundle.log.filter(days=[days[1]]).jobs
        d3 = tiny_bundle.log.filter(days=[days[2]]).jobs
        return RunLog(
            jobs=[
                *d1,
                *d2,
                *self._restamped(d3, days[2], factor=50.0, tag="-drift"),
                *self._restamped(d2, days[2] + 1, factor=50.0, tag="-after"),
            ]
        )

    def test_degradation_arms_and_recovers(self, drifted_log):
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1,
                frequency_days=100,  # schedule alone would never retrain
                drift_window_days=1,
                drift_degradation_factor=1.5,
            )
        )
        days = drifted_log.days
        first = manager.step(drifted_log, days[1])  # clean day: baseline
        assert first.retrained
        assert not manager.drift_pending
        baseline_error = first.median_error_pct

        shifted = manager.step(drifted_log, days[2])  # 50x day
        assert not shifted.retrained  # schedule says no...
        assert manager.drift_pending  # ...but the rolling trigger armed
        assert shifted.median_error_pct > baseline_error * 1.5
        assert manager.rolling_median_error == pytest.approx(
            shifted.median_error_pct
        )

        recovered = manager.step(drifted_log, days[3])
        assert recovered.retrained  # the armed trigger fired
        assert not recovered.rolled_back  # fresh version passed the gate
        assert manager.registry.version_count == 2
        # Trained on post-shift data, the fresh version recovers.
        assert recovered.median_error_pct < shifted.median_error_pct
        assert not manager.drift_pending  # new version, new baseline

    def test_stable_workload_never_arms(self, tiny_bundle):
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1,
                frequency_days=100,
                drift_window_days=1,
                drift_degradation_factor=10.0,  # generous degradation budget
            )
        )
        outcomes = manager.run(tiny_bundle.log)
        assert [o.retrained for o in outcomes] == [True, False]
        assert not manager.drift_pending

    def test_window_must_fill_before_arming(self, drifted_log):
        """One bad day inside a 3-day window is noise, not drift."""
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1,
                frequency_days=100,
                drift_window_days=3,
                drift_degradation_factor=1.5,
            )
        )
        days = drifted_log.days
        manager.step(drifted_log, days[1])
        manager.step(drifted_log, days[2])  # 50x day, window not full yet
        assert not manager.drift_pending

    def test_a_nan_baseline_day_leaves_the_trigger_armed(self, drifted_log):
        """A NaN latency on the baseline day must not make the baseline
        NaN (see :class:`TestNanScoredDays`): the 50x day still arms."""
        days = drifted_log.days
        poisoned = _nan_poisoned(drifted_log, days[1], nan_rate=0.2)
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1,
                frequency_days=100,
                drift_window_days=1,
                drift_degradation_factor=1.5,
            )
        )
        first = manager.step(poisoned, days[1])  # the baseline day
        assert first.retrained and math.isfinite(first.median_error_pct)
        shifted = manager.step(poisoned, days[2])  # 50x day
        assert not shifted.retrained
        assert manager.drift_pending
        assert manager.step(poisoned, days[3]).retrained


def _nan_poisoned(log, day, nan_rate):
    """``log`` with a share ``nan_rate`` of ``day``'s latencies set to NaN."""
    from repro.common.chaos import PoisonPolicy, RunLogPoisoner

    policy = PoisonPolicy(name="nan_day", nan_rate=nan_rate, days=(day,))
    poisoned, counts = RunLogPoisoner(policy).poison(log)
    assert counts["nan"] > 0
    return poisoned


class TestNanScoredDays:
    """A day whose latencies are poisoned with NaN is scored on the rows the
    training gate keeps, so it cannot disarm the drift trigger or the
    Section 6.7 gate; a day with no row left is not scored at all."""

    def test_a_nan_gate_day_can_still_roll_back(self, tiny_bundle, monkeypatch):
        from dataclasses import replace as dc_replace

        import repro.core.lifecycle as lifecycle_mod

        days = tiny_bundle.log.days
        poisoned = _nan_poisoned(tiny_bundle.log, days[2], nan_rate=0.2)
        manager = LifecycleManager(
            policy=RetrainPolicy(window_days=1, frequency_days=100, regression_factor=1.5)
        )
        manager.step(poisoned, days[1])
        manager._drift_pending = True
        real_eval = lifecycle_mod.evaluate_predictor_on_log

        def biased_eval(predictor, log, name=""):
            quality = real_eval(predictor, log, name=name)
            if name == "fresh":
                return dc_replace(
                    quality, median_error_pct=quality.median_error_pct * 10 + 1000
                )
            return quality

        monkeypatch.setattr(lifecycle_mod, "evaluate_predictor_on_log", biased_eval)
        outcome = manager.step(poisoned, days[2])
        assert outcome.retrained and outcome.rolled_back
        assert manager.drift_pending

    def test_a_day_with_no_clean_row_is_unscored(self, tiny_bundle):
        days = tiny_bundle.log.days
        poisoned = _nan_poisoned(tiny_bundle.log, days[2], nan_rate=1.0)
        manager = LifecycleManager(
            policy=RetrainPolicy(
                window_days=1,
                frequency_days=100,
                drift_window_days=1,
                drift_degradation_factor=1.5,
            )
        )
        manager.step(poisoned, days[1])
        baseline, window = manager._baseline_error, list(manager._error_window)
        outcome = manager.step(poisoned, days[2])
        assert outcome.quality.n_covered == 0
        assert outcome.quality.n_total == poisoned.filter(days=[days[2]]).operator_count
        assert math.isnan(outcome.median_error_pct)
        assert (manager._baseline_error, list(manager._error_window)) == (baseline, window)
        assert not manager.drift_pending
