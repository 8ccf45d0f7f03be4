"""Tests for the MSLE elastic net (the paper's individual-model learner)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.losses import mean_squared_log_error
from repro.ml.preprocessing import StandardScaler
from repro.ml.proximal import ElasticNetMSLE, _log_target, _segment_sum, _standardize_segments


def _cost_like_data(n=150, seed=0, noise=0.05):
    """Targets shaped like operator costs: positive, multiplicative noise."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(1e3, 1e7, size=n)
    partitions = rng.integers(1, 256, size=n).astype(float)
    x = np.column_stack([rows, rows / partitions, partitions])
    y = 2e-5 * rows / partitions + 0.05 * partitions + 1.0
    y = y * np.exp(noise * rng.normal(size=n))
    return x, y


class TestFitQuality:
    def test_learns_cost_structure(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE(alpha=0.001).fit(x, y)
        predictions = model.predict(x)
        ratio = predictions / y
        assert float(np.median(np.abs(ratio - 1.0))) < 0.25

    def test_predictions_nonnegative(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE().fit(x, y)
        wild = np.array([[1e12, 1e12, 3000.0], [0.0, 0.0, 1.0]])
        assert (model.predict(wild) >= 0).all()

    def test_better_than_geometric_mean_baseline(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE(alpha=0.001).fit(x, y)
        baseline = np.full_like(y, float(np.exp(np.mean(np.log1p(y)))) - 1.0)
        assert mean_squared_log_error(model.predict(x), y) < mean_squared_log_error(
            baseline, y
        )

    def test_scale_invariance_of_alpha(self):
        """The same relative fit on a 1000x larger target scale."""
        x, y = _cost_like_data()
        small = ElasticNetMSLE(alpha=0.01).fit(x, y).predict(x) / y
        big = ElasticNetMSLE(alpha=0.01).fit(x, y * 1000).predict(x) / (y * 1000)
        assert float(np.median(np.abs(small - 1))) == pytest.approx(
            float(np.median(np.abs(big - 1))), abs=0.1
        )

    def test_rejects_negative_targets(self):
        with pytest.raises(ValueError):
            ElasticNetMSLE().fit(np.ones((3, 1)), np.array([1.0, -1.0, 2.0]))


class TestRegularization:
    def test_l1_sparsifies(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 10))
        y = np.exp(x[:, 0]) + 10.0
        sparse = ElasticNetMSLE(alpha=0.5, l1_ratio=1.0).fit(x, y)
        dense = ElasticNetMSLE(alpha=1e-4, l1_ratio=0.0).fit(x, y)
        assert len(sparse.selected_features) <= len(dense.selected_features)

    def test_nonneg_constraint_respected(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE(alpha=0.001, nonneg_indices=(1, 2)).fit(x, y)
        raw, _ = model.coefficients_raw()
        assert raw[1] >= 0.0
        assert raw[2] >= 0.0

    def test_nonneg_constraint_keeps_fit_reasonable(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE(alpha=0.001, nonneg_indices=(1, 2)).fit(x, y)
        ratio = model.predict(x) / y
        assert float(np.median(np.abs(ratio - 1.0))) < 0.35


class TestRawCoefficients:
    def test_roundtrip(self):
        x, y = _cost_like_data()
        model = ElasticNetMSLE(alpha=0.01).fit(x, y)
        w, b = model.coefficients_raw()
        manual = np.maximum(x @ w + b, 0.0)
        assert np.allclose(manual, model.predict(x), rtol=1e-9, atol=1e-9)

    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ElasticNetMSLE().coefficients_raw()


class TestConvergence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=6, max_value=60))
    def test_loss_not_worse_than_start(self, n):
        """The optimizer must never end worse than its constant start."""
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 1e5, size=(n, 4))
        y = np.abs(rng.normal(10.0, 3.0, size=n))
        model = ElasticNetMSLE(alpha=0.01).fit(x, y)
        start = np.full_like(y, float(np.exp(np.mean(np.log1p(y)))) - 1.0)
        assert mean_squared_log_error(model.predict(x), y) <= (
            mean_squared_log_error(start, y) + 1e-6
        )

    def test_iteration_counter(self):
        x, y = _cost_like_data(n=30)
        model = ElasticNetMSLE(max_iter=17).fit(x, y)
        assert 1 <= model.n_iter_ <= 17


class TestSegmentSum:
    """What the batched Adam loop needs of ``np.add.reduceat`` — and no more."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lengths=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=12),
        width=st.sampled_from([None, 1, 9]),
    )
    def test_a_segments_sum_ignores_its_neighbours(self, seed, lengths, width):
        rng = np.random.default_rng(seed)
        shape = (sum(lengths),) if width is None else (sum(lengths), width)
        values = rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        together = _segment_sum(values, starts)
        for g, (start, length) in enumerate(zip(starts, lengths)):
            alone = _segment_sum(values[start : start + length], np.zeros(1, dtype=np.int64))
            assert np.array_equal(together[g], alone[0])


def _segments(rng, lengths, width, gap=3):
    """Rows for segments of ``lengths`` with up to ``gap`` unused rows
    before each, and columns that exercise standardization's edges."""
    lengths = np.asarray(lengths, dtype=np.int64)
    gaps = rng.integers(0, gap + 1, size=len(lengths))
    starts = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    n = int(starts[-1] + lengths[-1]) + int(rng.integers(0, gap + 1))
    kinds = [
        lambda: rng.lognormal(0.0, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n),
        lambda: np.full(n, rng.normal()),  # constant: spread 0
        lambda: 7.0 + 1e-14 * rng.normal(size=n),  # spread below 1e-12
        lambda: np.where(rng.random(n) < 0.5, 0.0, -0.0),
        lambda: rng.integers(0, 3, size=n).astype(float),
        lambda: rng.normal(size=n) * 1e6,
    ]
    features = np.column_stack([kinds[j % len(kinds)]() for j in range(width)])
    targets = rng.lognormal(0.0, 2.0, size=n)
    zero = rng.random(n)
    targets[zero < 0.1] = 0.0
    targets[zero > 0.95] = -0.0
    return features, targets, starts, lengths


def _per_segment(features, targets, starts, lengths):
    """The spelling the grouped pass replaced: one ``StandardScaler.fit``
    and one ``_log_target`` per segment."""
    means, scales, rows, logs, y_scales = [], [], [], [], []
    for start, length in zip(starts.tolist(), lengths.tolist()):
        segment = features[start : start + length]
        scaler = StandardScaler().fit(segment)
        means.append(scaler.mean_)
        scales.append(scaler.scale_)
        rows.append(scaler.transform(segment))
        y_log, y_scale = _log_target(targets[start : start + length])
        logs.append(y_log)
        y_scales.append(y_scale)
    return (
        np.array(means),
        np.array(scales),
        np.concatenate(rows),
        np.concatenate(logs),
        np.array(y_scales),
    )


def _assert_bitwise(got, want):
    for name, a, b in zip(("mean", "scale", "rows", "y_log", "y_scale"), got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestGroupedStandardization:
    """``fit_elastic_nets`` standardizes one pass per segment length; every
    segment must get exactly the bits its own scaler and log target give."""

    @pytest.mark.parametrize("width", [29, 31])
    def test_every_length_from_1_to_300(self, width):
        """Lengths cross numpy's 8-lane unroll and its 128-element pairwise
        blocks; every length has two segments, so each group stacks."""
        rng = np.random.default_rng(width)
        lengths = rng.permutation(np.repeat(np.arange(1, 301), 2))
        batch = _segments(rng, lengths, width)
        _assert_bitwise(_standardize_segments(*batch), _per_segment(*batch))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=25),
        width=st.sampled_from([1, 2, 29, 31]),
        gap=st.sampled_from([0, 3]),
    )
    def test_generated_batches(self, seed, lengths, width, gap):
        rng = np.random.default_rng(seed)
        batch = _segments(rng, lengths, width, gap)
        _assert_bitwise(_standardize_segments(*batch), _per_segment(*batch))
