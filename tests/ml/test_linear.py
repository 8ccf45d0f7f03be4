"""Tests for the linear model family (elastic net, ridge, robust fits)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ModelNotTrainedError
from repro.ml.linear import (
    ElasticNet,
    LeastAbsoluteRegressor,
    LinearRegressor,
    MedianAbsoluteRegressor,
)


def _linear_data(n=200, d=8, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = np.zeros(d)
    w[:3] = [3.0, -2.0, 1.0]
    y = x @ w + 5.0 + noise * rng.normal(size=n)
    return x, y, w


def _selected(model) -> np.ndarray:
    """Indices of the features with non-zero weight (the L1 selection)."""
    return np.flatnonzero(np.abs(model.coef_) > 1e-12)


class TestElasticNet:
    def test_recovers_linear_relationship(self):
        x, y, _ = _linear_data()
        model = ElasticNet(alpha=0.001).fit(x, y)
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse < 0.1

    def test_l1_produces_sparsity(self):
        x, y, _ = _linear_data(noise=0.01)
        dense = ElasticNet(alpha=1e-5, l1_ratio=0.0).fit(x, y)
        sparse = ElasticNet(alpha=0.5, l1_ratio=1.0).fit(x, y)
        assert _selected(sparse).size < _selected(dense).size

    def test_strong_penalty_shrinks_to_intercept(self):
        x, y, _ = _linear_data()
        model = ElasticNet(alpha=1e6, l1_ratio=1.0).fit(x, y)
        assert np.allclose(model.coef_, 0.0)
        assert model.intercept_ == pytest.approx(float(y.mean()))

    def test_predict_before_fit_raises(self):
        with pytest.raises(ModelNotTrainedError):
            ElasticNet().predict(np.zeros((1, 3)))

    def test_coefficients_raw_roundtrip(self):
        x, y, _ = _linear_data()
        model = ElasticNet(alpha=0.01).fit(x, y)
        w, b = model.coefficients_raw()
        manual = x @ w + b
        assert np.allclose(manual, model.predict(x), atol=1e-8)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            ElasticNet(alpha=-1)
        with pytest.raises(ValueError):
            ElasticNet(l1_ratio=2.0)

    def test_rejects_nan_inputs(self):
        x = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            ElasticNet().fit(x, np.array([1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ElasticNet().fit(np.zeros((3, 2)), np.zeros(4))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=1, max_value=6))
    def test_never_worse_than_intercept_only(self, n, d):
        """Training fit must be at least as good as predicting the mean."""
        rng = np.random.default_rng(n * 7 + d)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = ElasticNet(alpha=0.01).fit(x, y)
        fit_mse = float(np.mean((model.predict(x) - y) ** 2))
        mean_mse = float(np.mean((y - y.mean()) ** 2))
        assert fit_mse <= mean_mse + 1e-6


class TestLinearRegressor:
    def test_exact_on_noiseless(self):
        x, y, _ = _linear_data(noise=0.0)
        model = LinearRegressor().fit(x, y)
        assert np.allclose(model.predict(x), y, atol=1e-6)

    def test_sample_weights_prioritize(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 100.0])  # last point is an outlier
        weights = np.array([1.0, 1.0, 1.0, 1e-9])
        model = LinearRegressor().fit(x, y, sample_weight=weights)
        assert model.predict(np.array([[3.0]]))[0] == pytest.approx(3.0, abs=0.1)


class TestRobustRegressors:
    def test_lad_resists_outliers(self):
        x, y, _ = _linear_data(n=100, noise=0.01, seed=1)
        y_corrupt = y.copy()
        y_corrupt[:5] += 1000.0
        lad = LeastAbsoluteRegressor().fit(x, y_corrupt)
        ols = LinearRegressor().fit(x, y_corrupt)
        clean_mask = np.ones(len(y), dtype=bool)
        clean_mask[:5] = False
        lad_err = np.abs(lad.predict(x[clean_mask]) - y[clean_mask]).mean()
        ols_err = np.abs(ols.predict(x[clean_mask]) - y[clean_mask]).mean()
        assert lad_err < ols_err

    def test_median_regressor_fits_majority(self):
        x, y, _ = _linear_data(n=100, noise=0.01, seed=2)
        y_corrupt = y.copy()
        y_corrupt[:20] *= 10
        model = MedianAbsoluteRegressor().fit(x, y_corrupt)
        residuals = np.abs(model.predict(x[20:]) - y[20:])
        assert float(np.median(residuals)) < 1.0

    def test_median_regressor_validation(self):
        with pytest.raises(ValueError):
            MedianAbsoluteRegressor(keep_fraction=0.05)
