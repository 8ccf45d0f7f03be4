"""Tests for LearnedCostModel and the resource profile extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learned_model import LearnedCostModel, ResourceProfile
from repro.features.featurizer import FeatureInput


def _synthetic_samples(n=60, seed=0, theta_p=5000.0, theta_c=0.2):
    """Samples whose true cost is exactly theta_p-style: A/P + C*P + const."""
    rng = np.random.default_rng(seed)
    inputs, costs = [], []
    for _ in range(n):
        rows = float(rng.uniform(1e5, 2e6))
        partitions = float(rng.integers(2, 300))
        f = FeatureInput(
            input_card=rows,
            base_card=rows,
            output_card=rows * 0.1,
            avg_row_bytes=100.0,
            partition_count=partitions,
        )
        cost = theta_p * (rows / 1e6) / partitions + theta_c * partitions + 3.0
        cost *= float(np.exp(rng.normal(0, 0.05)))
        inputs.append(f)
        costs.append(cost)
    return inputs, np.asarray(costs)


class TestFitAndPredict:
    def test_fit_predict_accuracy(self):
        inputs, costs = _synthetic_samples()
        model = LearnedCostModel(include_context=False).fit(inputs, costs)
        preds = model.predict_many(inputs)
        ratio = preds / costs
        assert float(np.median(np.abs(ratio - 1))) < 0.3

    def test_predictions_nonnegative_and_bounded(self):
        inputs, costs = _synthetic_samples()
        model = LearnedCostModel(include_context=False).fit(inputs, costs)
        extreme = inputs[0].with_partition_count(1.0)
        value = model.predict_one(extreme)
        assert 0.0 <= value <= 1e7

    def test_alignment_validation(self):
        inputs, costs = _synthetic_samples(n=10)
        with pytest.raises(ValueError):
            LearnedCostModel(include_context=False).fit(inputs, costs[:5])

    def test_context_models_use_more_features(self):
        inputs, costs = _synthetic_samples(n=30)
        with_ctx = LearnedCostModel(include_context=True).fit(inputs, costs)
        without = LearnedCostModel(include_context=False).fit(inputs, costs)
        assert len(with_ctx.feature_weights()) == len(without.feature_weights()) + 2

    def test_is_fitted_flag(self):
        model = LearnedCostModel(include_context=False)
        assert not model.is_fitted
        inputs, costs = _synthetic_samples(n=10)
        model.fit(inputs, costs)
        assert model.is_fitted

    def test_a_held_model_costs_its_parameters(self):
        """One model in a store costs its block row (four 31-wide planes,
        three scalars, its training-row count and its signature) plus the
        bank's index entry (the signature and four tier slots)."""
        from repro.core.config import ModelKind
        from repro.core.model_store import ModelStore

        inputs, costs = _synthetic_samples(n=10)
        store = ModelStore()
        empty = store.memory_bytes
        store.add(ModelKind.OPERATOR, 7, LearnedCostModel(include_context=True).fit(inputs, costs))
        assert store.memory_bytes - empty == (4 * 31 + 3 + 1 + 1) * 8 + (1 + 4) * 8


class TestResourceProfile:
    def test_profile_cost_matches_prediction_shape(self):
        """The theta decomposition must reproduce the model's own P-sweep."""
        inputs, costs = _synthetic_samples()
        model = LearnedCostModel(include_context=False).fit(inputs, costs)
        f = inputs[0]
        profile = model.resource_profile(f)
        for p in (1, 4, 32, 128, 1024):
            direct = model.predict_one(f.with_partition_count(float(p)))
            via_profile = max(profile.cost_at(p), 0.0)
            assert via_profile == pytest.approx(direct, rel=1e-6, abs=1e-6)

    def test_thetas_nonnegative_under_constraint(self):
        inputs, costs = _synthetic_samples()
        model = LearnedCostModel(include_context=False).fit(inputs, costs)
        profile = model.resource_profile(inputs[0])
        assert profile.theta_p >= 0.0
        assert profile.theta_c >= 0.0

    def test_optimal_partitions_against_brute_force(self):
        inputs, costs = _synthetic_samples()
        model = LearnedCostModel(include_context=False).fit(inputs, costs)
        profile = model.resource_profile(inputs[0])
        chosen = profile.optimal_partitions(3000)
        brute = min(range(1, 3001), key=profile.cost_at)
        assert profile.cost_at(chosen) == pytest.approx(profile.cost_at(brute), rel=1e-6)


class TestResourceProfileMath:
    def test_interior_optimum(self):
        profile = ResourceProfile(theta_p=100.0, theta_c=1.0, theta_0=0.0)
        assert profile.optimal_partitions(3000) == 10

    def test_max_when_overhead_negative(self):
        profile = ResourceProfile(theta_p=100.0, theta_c=-0.001, theta_0=0.0)
        assert profile.optimal_partitions(500) == 500

    def test_min_when_work_negative(self):
        profile = ResourceProfile(theta_p=-10.0, theta_c=1.0, theta_0=0.0)
        assert profile.optimal_partitions(500) == 1

    def test_clamped_to_max(self):
        profile = ResourceProfile(theta_p=1e9, theta_c=0.001, theta_0=0.0)
        assert profile.optimal_partitions(100) == 100

    def test_cost_at_validates(self):
        with pytest.raises(ValueError):
            ResourceProfile(1, 1, 0).cost_at(0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-1e4, max_value=1e6),
        st.floats(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=3000),
    )
    def test_choice_never_worse_than_endpoints(self, theta_p, theta_c, max_p):
        profile = ResourceProfile(theta_p, theta_c, 0.0)
        chosen = profile.optimal_partitions(max_p)
        assert 1 <= chosen <= max_p
        assert profile.cost_at(chosen) <= profile.cost_at(1) + 1e-9
        assert profile.cost_at(chosen) <= profile.cost_at(max_p) + 1e-9
