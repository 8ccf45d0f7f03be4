"""Scalar/columnar featurization parity and FeatureTable behaviour.

The columnar pipeline's contract is that expanding a ``FeatureTable`` is
*bitwise identical* to per-row expansion through the scalar wrappers and
the per-name scalar registry — these tests are the pin.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.featurizer import (
    ALL_FEATURE_NAMES,
    FEATURE_EXPRESSIONS,
    FEATURE_FUNCTIONS,
    FeatureInput,
    feature_matrix,
    feature_names,
    feature_vector,
)
from repro.features.table import FeatureTable

# Cardinalities, widths, and partition counts spanning the simulator's
# realistic ranges (including exact zeros and tiny fractions).
_value = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False),
)
_partitions = st.integers(min_value=1, max_value=3000)


@st.composite
def feature_inputs(draw) -> FeatureInput:
    return FeatureInput(
        input_card=draw(_value),
        base_card=draw(_value),
        output_card=draw(_value),
        avg_row_bytes=draw(st.floats(min_value=1.0, max_value=4096.0)),
        partition_count=float(draw(_partitions)),
        input_enc=draw(st.floats(min_value=0.0, max_value=1.0)),
        params_enc=draw(_value),
        logical_count=float(draw(st.integers(min_value=1, max_value=200))),
        depth=float(draw(st.integers(min_value=1, max_value=60))),
    )


def _scalar_reference_matrix(inputs, include_context: bool) -> np.ndarray:
    """Independent per-row, per-name expansion through the scalar registry."""
    names = feature_names(include_context)
    return np.array(
        [[FEATURE_FUNCTIONS[name](f) for name in names] for f in inputs], dtype=float
    )


class TestScalarColumnarParity:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(feature_inputs(), min_size=1, max_size=12), st.booleans())
    def test_feature_matrix_bitwise_equals_table_expansion(
        self, inputs, include_context
    ):
        table = FeatureTable.from_inputs(inputs)
        columnar = table.feature_matrix(include_context=include_context)
        wrapper = feature_matrix(inputs, include_context=include_context)
        reference = _scalar_reference_matrix(inputs, include_context)
        # Bitwise: compare the raw float64 bit patterns, not just values.
        assert columnar.shape == reference.shape
        assert (columnar.view(np.uint64) == reference.view(np.uint64)).all()
        assert (wrapper.view(np.uint64) == columnar.view(np.uint64)).all()

    @settings(max_examples=25, deadline=None)
    @given(feature_inputs(), st.booleans())
    def test_feature_vector_bitwise_equals_table_row(self, f, include_context):
        table = FeatureTable.from_inputs([f])
        row = table.feature_matrix(include_context=include_context)[0]
        vec = feature_vector(f, include_context=include_context)
        assert (vec.view(np.uint64) == row.view(np.uint64)).all()

    def test_empty_inputs(self):
        for include_context in (False, True):
            width = len(feature_names(include_context))
            matrix = feature_matrix([], include_context=include_context)
            assert matrix.shape == (0, width)
            table = FeatureTable.from_inputs([])
            assert table.feature_matrix(include_context=include_context).shape == (
                0,
                width,
            )

    def test_scalar_registry_matches_columnar_registry(self):
        f = FeatureInput(
            input_card=1e6,
            base_card=2e6,
            output_card=1e5,
            avg_row_bytes=100.0,
            partition_count=10.0,
        )
        table = FeatureTable.from_inputs([f])
        for name in ALL_FEATURE_NAMES:
            scalar = FEATURE_FUNCTIONS[name](f)
            columnar = float(np.asarray(FEATURE_EXPRESSIONS[name](table))[0])
            assert scalar == columnar, name


class TestFeatureTable:
    def test_from_inputs_without_bundles_has_no_signatures(self):
        table = FeatureTable.from_inputs(
            [
                FeatureInput(
                    input_card=1.0,
                    base_card=1.0,
                    output_card=1.0,
                    avg_row_bytes=8.0,
                    partition_count=1.0,
                )
            ]
        )
        assert not table.has_signatures
        with pytest.raises(KeyError):
            table.signature_column("strict")

    def test_from_records_round_trip(self, tiny_bundle):
        records = list(tiny_bundle.log.operator_records())[:64]
        table = FeatureTable.from_records(records)
        assert len(table) == len(records)
        for i in (0, len(records) // 2, len(records) - 1):
            r = records[i]
            assert table.input_card[i] == r.features.input_card
            assert table.partition_count[i] == r.features.partition_count
            assert table.latency[i] == r.actual_latency
            assert int(table.signature_column("strict")[i]) == r.signatures.strict
            assert int(table.signature_column("operator")[i]) == r.signatures.operator
            assert table.day[i] == r.day
            assert table.cluster[i] == r.cluster

    def test_group_by_signature_partitions_all_rows(self, tiny_bundle):
        table = tiny_bundle.log.to_table()
        uniques, order, starts, counts = table.group_by_signature("operator")
        assert counts.sum() == len(table)
        assert sorted(order.tolist()) == list(range(len(table)))
        column = table.signature_column("operator")
        for signature, start, count in zip(uniques, starts, counts):
            group = order[start : start + count]
            assert (column[group] == signature).all()
            # Stable grouping: original record order preserved within groups.
            assert (np.diff(group) > 0).all()

    def test_run_log_table_cached_and_invalidated(self, tiny_bundle):
        log = tiny_bundle.log.filter(days=[1])
        table = log.to_table()
        assert log.to_table() is table  # cached
        job = tiny_bundle.log.jobs[-1]
        log.append(job)
        table2 = log.to_table()
        assert table2 is not table
        assert len(table2) == len(table) + len(job.operators)

    @pytest.mark.parametrize(
        "indices",
        [
            np.array([], dtype=np.int64),
            np.array([3], dtype=np.int64),
            np.array([4, 0, 4, 4, 1], dtype=np.int64),
            [np.int64(2), np.int64(2), np.int64(0)],
        ],
        ids=["empty", "single", "repeated", "np_int64_list"],
    )
    def test_take_gathers_the_cluster_column(self, indices):
        """``take``'s one-gather cluster column is the per-row tuple: a
        ``tuple`` of ``str``, in index order, repeats kept."""
        n = 5
        table = FeatureTable(
            features=np.arange(n * 9, dtype=float).reshape(n, 9),
            latency=np.arange(n, dtype=float),
            day=np.arange(n, dtype=np.int64),
            cluster=("c1", "c2", "c1", "c4", "c3"),
            is_adhoc=np.zeros(n, dtype=bool),
        )
        taken = table.take(indices)
        expected = tuple(table.cluster[i] for i in indices)
        assert type(taken.cluster) is tuple
        assert taken.cluster == expected
        assert all(type(name) is str for name in taken.cluster)
        rows = np.asarray(indices, dtype=np.int64)
        assert np.array_equal(taken.features, table.features[rows])
