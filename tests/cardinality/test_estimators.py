"""Tests for the default estimator, perfect feedback, and CardLearner."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cardinality import estimator as estimator_module
from repro.cardinality.cardlearner import CardLearner
from repro.cardinality.estimator import (
    CardinalityEstimator,
    EstimatorConfig,
    _gauss_from_unit,
)
from repro.common.hashing import stable_unit_float
from repro.cardinality.perfect import PerfectCardinalityEstimator
from repro.plan.physical import PhysOpType


class TestDefaultEstimator:
    def test_scan_estimates_are_exact(self, physical_simple_plan, estimator):
        for op in physical_simple_plan.walk():
            if op.op_type is PhysOpType.EXTRACT:
                assert estimator.estimate(op) == op.true_card

    def test_errors_deterministic_per_template(self, physical_simple_plan):
        est1 = CardinalityEstimator()
        est2 = CardinalityEstimator()
        for op in physical_simple_plan.walk():
            assert est1.estimate(op) == est2.estimate(op)

    def test_zero_sigma_is_exact(self, physical_join_plan):
        exact = CardinalityEstimator(EstimatorConfig(sigma_scale=0.0))
        for op in physical_join_plan.walk():
            assert exact.estimate(op) == pytest.approx(op.true_card, rel=1e-9)

    def test_nonzero_sigma_errs_on_filters(self, physical_simple_plan, estimator):
        filters = [
            op for op in physical_simple_plan.walk() if op.op_type is PhysOpType.FILTER
        ]
        assert filters
        assert any(
            estimator.estimate(op) != pytest.approx(op.true_card) for op in filters
        )

    def test_capped_operators_never_exceed_input(self, physical_simple_plan, estimator):
        for op in physical_simple_plan.walk():
            if op.op_type in (PhysOpType.FILTER, PhysOpType.HASH_AGGREGATE):
                assert estimator.estimate(op) <= estimator.estimate_input(op) + 1e-6

    def test_enforcers_pass_through(self, physical_join_plan, estimator):
        for op in physical_join_plan.walk():
            if op.op_type is PhysOpType.EXCHANGE:
                assert estimator.estimate(op) == estimator.estimate(op.children[0])

    def test_estimates_nonnegative(self, physical_join_plan, estimator):
        for op in physical_join_plan.walk():
            assert estimator.estimate(op) >= 0.0

    def test_seed_salt_changes_errors(self, physical_simple_plan):
        a = CardinalityEstimator(EstimatorConfig(seed_salt="a"))
        b = CardinalityEstimator(EstimatorConfig(seed_salt="b"))
        values_a = [a.estimate(op) for op in physical_simple_plan.walk()]
        values_b = [b.estimate(op) for op in physical_simple_plan.walk()]
        assert values_a != values_b



def _templates(bundle) -> list[tuple[str, object]]:
    """Every (template tag, logical type) the bundle's plans estimate."""
    pairs = {
        (op.logical.template_tag, op.logical.op_type): None
        for plan in bundle.runner.plans.values()
        for op in plan.walk()
        if op.logical is not None
    }
    return list(pairs)


def _drawn(config: EstimatorConfig, tag: str, op_type) -> float:
    """The factor derived from scratch: no memo anywhere."""
    sigma = config.sigmas.get(op_type, 0.0) * config.sigma_scale
    if sigma <= 0.0:
        return 1.0
    return math.exp(sigma * _gauss_from_unit(stable_unit_float(config.seed_salt, tag, op_type.value)))


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestErrorFactorMemo:
    """Error factors are memoized by value, across estimators: a fresh
    estimator on a known config derives nothing, and the answers are the
    derivation's bits whichever estimator (or memo state) serves them."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(estimator_module, "_ERROR_FACTORS", {})

    def _count_draws(self, monkeypatch) -> list:
        draws: list = []

        def counted(*parts):
            draws.append(parts)
            return stable_unit_float(*parts)

        monkeypatch.setattr(estimator_module, "stable_unit_float", counted)
        return draws

    def test_fresh_estimators_share_bitwise_factors(self, tiny_bundle, monkeypatch):
        pairs = _templates(tiny_bundle)
        config = EstimatorConfig()
        draws = self._count_draws(monkeypatch)
        first = [CardinalityEstimator(config).error_factor_for(*p) for p in pairs]
        drawn = len(draws)
        second = [CardinalityEstimator(config).error_factor_for(*p) for p in pairs]
        assert drawn > 0 and len(draws) == drawn  # the second estimator drew nothing
        assert _bits(first) == _bits(second) == _bits([_drawn(config, *p) for p in pairs])
        # An equal config (a distinct object) shares the entries too.
        third = CardinalityEstimator(EstimatorConfig())
        assert _bits([third.error_factor_for(*p) for p in pairs]) == _bits(first)
        assert len(draws) == drawn

    @pytest.mark.parametrize(
        "changed", [{"sigma_scale": 0.5}, {"seed_salt": "other-salt"}], ids=["sigma", "salt"]
    )
    def test_a_changed_config_changes_the_factors(self, tiny_bundle, changed):
        pairs = _templates(tiny_bundle)
        base = EstimatorConfig()
        other = EstimatorConfig(**changed)
        ours = [CardinalityEstimator(base).error_factor_for(*p) for p in pairs]
        theirs = [CardinalityEstimator(other).error_factor_for(*p) for p in pairs]
        assert _bits(ours) == _bits([_drawn(base, *p) for p in pairs])
        assert _bits(theirs) == _bits([_drawn(other, *p) for p in pairs])
        assert ours != theirs

    def test_a_small_bound_gives_identical_estimates(self, tiny_bundle, monkeypatch):
        plans = list(tiny_bundle.runner.plans.values())
        config = tiny_bundle.runner.estimator_config

        def estimates() -> list[float]:
            estimator = CardinalityEstimator(config)
            return [estimator.estimate(op) for plan in plans for op in plan.walk()]

        unbounded = estimates()
        peak = len(estimator_module._ERROR_FACTORS)
        monkeypatch.setattr(estimator_module, "_ERROR_FACTORS", {})
        monkeypatch.setattr(estimator_module, "_ERROR_FACTOR_LIMIT", 3)
        sizes: list[int] = []
        original = CardinalityEstimator.error_factor_for

        def watched(self, *args):
            value = original(self, *args)
            sizes.append(len(estimator_module._ERROR_FACTORS))
            return value

        monkeypatch.setattr(CardinalityEstimator, "error_factor_for", watched)
        assert peak > 3, "the run must outgrow the patched limit, or nothing is cleared"
        assert _bits(estimates()) == _bits(unbounded)
        assert 0 < max(sizes) <= 3

class TestPerfectEstimator:
    def test_all_estimates_exact(self, physical_join_plan):
        perfect = PerfectCardinalityEstimator()
        for op in physical_join_plan.walk():
            assert perfect.estimate(op) == op.true_card
            if op.logical is not None:
                assert perfect.error_factor_for(op.template_tag, op.logical.op_type) == 1.0


class TestCardLearner:
    def _train(self, plan, n=12):
        learner = CardLearner()
        for _ in range(n):
            learner.observe_plan(plan)
        learner.fit()
        return learner

    def test_learns_covered_templates(self, physical_simple_plan):
        learner = CardLearner()
        for _ in range(12):
            learner.observe_plan(physical_simple_plan)
        assert learner.fit() > 0

    def test_prediction_close_to_truth_on_training_plan(self, physical_simple_plan):
        learner = self._train(physical_simple_plan)
        default = CardinalityEstimator()
        improvements = 0
        comparisons = 0
        for op in physical_simple_plan.walk():
            if op.logical is None or not op.children:
                continue
            learned_err = abs(np.log(
                (learner.estimate(op) + 1) / (op.true_card + 1)
            ))
            default_err = abs(np.log(
                (default.estimate(op) + 1) / (op.true_card + 1)
            ))
            comparisons += 1
            if learned_err <= default_err + 1e-9:
                improvements += 1
        assert comparisons > 0
        assert improvements >= comparisons / 2

    def test_uncovered_falls_back_to_base(self, physical_simple_plan, physical_join_plan):
        learner = self._train(physical_simple_plan)
        base = learner.base
        for op in physical_join_plan.walk():
            if op.op_type is PhysOpType.HASH_JOIN:
                assert learner.estimate(op) == pytest.approx(base.estimate(op))

    def test_min_samples_threshold(self, physical_simple_plan):
        learner = CardLearner()
        learner.observe_plan(physical_simple_plan)  # one observation only
        assert learner.fit() == 0

    def test_estimates_nonnegative(self, physical_simple_plan):
        learner = self._train(physical_simple_plan)
        for op in physical_simple_plan.walk():
            assert learner.estimate(op) >= 0.0
