"""Tests for the statistics helpers behind the paper's metrics."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.common.stats import (
    Cdf,
    error_ratio,
    geometric_partition_samples,
    median_error_pct,
    pearson,
    percentile_error_pct,
    relative_error_pct,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    def test_short_series(self):
        assert pearson([1.0], [2.0]) == 0.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=50),
    )
    def test_bounded(self, xs):
        ys = [x * 2 + 3 for x in xs]
        value = pearson(xs, ys)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestErrorMetrics:
    def test_median_error_pct_exact(self):
        predicted = np.array([110.0, 90.0, 200.0])
        actual = np.array([100.0, 100.0, 100.0])
        assert median_error_pct(predicted, actual) == pytest.approx(10.0)

    def test_percentile_error(self):
        predicted = np.full(100, 150.0)
        actual = np.full(100, 100.0)
        assert percentile_error_pct(predicted, actual, 95) == pytest.approx(50.0)

    def test_empty_is_nan(self):
        assert np.isnan(median_error_pct(np.array([]), np.array([])))

    def test_relative_error_nonnegative(self):
        errs = relative_error_pct(np.array([1.0, -5.0]), np.array([2.0, 5.0]))
        assert (errs >= 0).all()

    def test_error_ratio_guards_zero(self):
        ratios = error_ratio(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(ratios).all()


class TestCdf:
    def test_monotone_nondecreasing(self):
        cdf = Cdf.of(np.random.default_rng(0).lognormal(0, 1, 500))
        fractions = np.array(cdf.fractions)
        assert (np.diff(fractions) >= 0).all()

    def test_bounds(self):
        cdf = Cdf.of([0.5, 1.0, 2.0])
        assert 0.0 <= min(cdf.fractions) and max(cdf.fractions) <= 1.0

    def test_at_interpolates(self):
        cdf = Cdf.of([1.0] * 10)
        assert cdf.at(2.0) == pytest.approx(1.0)
        assert cdf.at(0.5) == pytest.approx(0.0)

    def test_central_mass_perfect_predictions(self):
        cdf = Cdf.of(np.ones(100))
        assert cdf.central_mass() == pytest.approx(1.0)

    def test_empty_sample(self):
        cdf = Cdf.of([])
        assert max(cdf.fractions) == 0.0

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=100))
    def test_property_monotone(self, values):
        fractions = np.array(Cdf.of(values).fractions)
        assert (np.diff(fractions) >= -1e-12).all()


class TestGeometricSamples:
    def test_starts_one_two(self):
        samples = geometric_partition_samples(100, 2.0)
        assert samples[:2] == [1, 2]

    def test_strictly_increasing(self):
        samples = geometric_partition_samples(3000, 2.0)
        assert all(b > a for a, b in zip(samples, samples[1:]))

    def test_respects_max(self):
        samples = geometric_partition_samples(500, 0.5)
        assert max(samples) <= 500

    def test_larger_skip_means_more_samples(self):
        sparse = geometric_partition_samples(3000, 0.5)
        dense = geometric_partition_samples(3000, 5.0)
        assert len(dense) > len(sparse)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geometric_partition_samples(0, 1.0)
        with pytest.raises(ValueError):
            geometric_partition_samples(10, 0.0)

    def test_max_one(self):
        assert geometric_partition_samples(1, 2.0) == [1]
