"""Tests for the default estimator, perfect feedback, and CardLearner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality.cardlearner import CardLearner
from repro.cardinality.estimator import CardinalityEstimator, EstimatorConfig
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
        learner = self._train(physical_simple_plan)
        assert learner.coverage_templates > 0

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
        learner.fit()
        assert learner.coverage_templates == 0

    def test_estimates_nonnegative(self, physical_simple_plan):
        learner = self._train(physical_simple_plan)
        for op in physical_simple_plan.walk():
            assert learner.estimate(op) >= 0.0
