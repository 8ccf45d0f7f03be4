"""Tests for feature extraction (Tables 2-3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.extract import feature_input_for
from repro.features.featurizer import (
    ALL_FEATURE_NAMES,
    BASIC_FEATURE_NAMES,
    CONTEXT_FEATURE_NAMES,
    DERIVED_FEATURE_NAMES,
    FEATURE_FUNCTIONS,
    INVERSE_P_FEATURES,
    FeatureInput,
    feature_matrix,
    feature_names,
    feature_vector,
    partition_feature_names,
)


def _input(**overrides) -> FeatureInput:
    base = dict(
        input_card=1e6,
        base_card=2e6,
        output_card=1e5,
        avg_row_bytes=100.0,
        partition_count=10.0,
    )
    base.update(overrides)
    return FeatureInput(**base)


class TestFeatureLayout:
    def test_basic_names_match_paper_table2(self):
        assert BASIC_FEATURE_NAMES == ("I", "B", "C", "L", "P", "IN", "PM")

    def test_context_features(self):
        assert CONTEXT_FEATURE_NAMES == ("CL", "D")

    def test_feature_count_in_paper_range(self):
        # The paper cites 25-30 candidate features.
        assert 25 <= len(BASIC_FEATURE_NAMES + DERIVED_FEATURE_NAMES) <= 30

    def test_vector_matches_names(self):
        f = _input()
        assert len(feature_vector(f)) == len(feature_names(False))
        assert len(feature_vector(f, include_context=True)) == len(ALL_FEATURE_NAMES)

    def test_registry_covers_all_names(self):
        assert set(ALL_FEATURE_NAMES) <= set(FEATURE_FUNCTIONS)


class TestFeatureValues:
    def test_selected_derivations(self):
        f = _input()
        values = dict(zip(feature_names(False), feature_vector(f)))
        assert values["I"] == 1e6
        assert values["sqrt(I)"] == pytest.approx(1000.0)
        assert values["I/P"] == pytest.approx(1e5)
        assert values["L*I"] == pytest.approx(1e8)
        assert values["I*C"] == pytest.approx(1e11)
        assert values["P"] == 10.0

    def test_log_features_use_log1p(self):
        f = _input(input_card=0.0, output_card=0.0)
        values = dict(zip(feature_names(False), feature_vector(f)))
        assert values["log(I)*log(C)"] == 0.0

    def test_partition_features_flagged(self):
        flagged = {name for _, name in partition_feature_names()}
        assert "I/P" in flagged and "P" in flagged
        assert "I" not in flagged

    def test_inverse_p_features_shrink_with_p(self):
        small_p = dict(zip(feature_names(False), feature_vector(_input(partition_count=2))))
        large_p = dict(zip(feature_names(False), feature_vector(_input(partition_count=200))))
        for name in INVERSE_P_FEATURES:
            assert large_p[name] < small_p[name]

    def test_with_partition_count(self):
        f = _input()
        g = f.with_partition_count(99)
        assert g.partition_count == 99
        assert g.input_card == f.input_card

    def test_matrix_stacking(self):
        matrix = feature_matrix([_input(), _input(input_card=5.0)])
        assert matrix.shape == (2, len(feature_names(False)))

    def test_empty_matrix(self):
        assert feature_matrix([]).shape == (0, len(feature_names(False)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1e10),
        st.floats(min_value=0, max_value=1e10),
        st.integers(min_value=1, max_value=3000),
    )
    def test_all_features_finite(self, cards, out, partitions):
        f = _input(input_card=cards, output_card=out, partition_count=float(partitions))
        vec = feature_vector(f, include_context=True)
        assert np.isfinite(vec).all()


class TestEncodings:
    def test_input_encoding_stable(self):
        inputs = frozenset({"a", "b"})
        assert FeatureInput.encode_inputs(inputs) == FeatureInput.encode_inputs(inputs)

    def test_input_encoding_distinguishes(self):
        assert FeatureInput.encode_inputs(frozenset({"a"})) != FeatureInput.encode_inputs(
            frozenset({"b"})
        )

    def test_params_encoding(self):
        assert FeatureInput.encode_params(()) == 0.0
        assert FeatureInput.encode_params((2.0, 4.0)) == 3.0


class TestLiveExtraction:
    def test_matches_estimates(self, physical_simple_plan, estimator):
        for op in physical_simple_plan.walk():
            f = feature_input_for(op, estimator)
            assert f.output_card == pytest.approx(estimator.estimate(op))
            assert f.partition_count == op.partition_count
            assert f.depth == op.depth

    def test_partition_override(self, physical_simple_plan, estimator):
        f = feature_input_for(physical_simple_plan, estimator, partition_override=77)
        assert f.partition_count == 77.0
