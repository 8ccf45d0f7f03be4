"""The fused feature expansion against the declared per-feature expressions.

``expand_columns`` computes the whole derived matrix in a few 2-D passes
compiled from the feature names; ``FEATURE_EXPRESSIONS`` evaluates each
feature on its own, column by column.  Both come from the one declaration of
the features, and this pins them (and the scalar ``feature_vector`` bridge)
bit for bit on awkward values: signed zeros, subnormals, huge magnitudes,
and products that overflow.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.features.featurizer import (
    ALL_FEATURE_NAMES,
    COLUMN_NAMES,
    FEATURE_EXPRESSIONS,
    FEATURE_FUNCTIONS,
    FeatureInput,
    INVERSE_P_FEATURES,
    expand_columns,
    feature_names,
    feature_vector,
)
from repro.features.table import FeatureTable

_SPECIAL = np.array(
    [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.5, 1e300, -2.0, 7e12]
)
_P = COLUMN_NAMES.index("partition_count")


def _rows(n: int, seed: int) -> np.ndarray:
    """``n`` feature rows: log-uniform magnitudes with about a third of the
    entries replaced by special values, and P >= 1."""
    rng = np.random.default_rng(seed)
    rows = np.exp(rng.uniform(-20.0, 60.0, size=(n, len(COLUMN_NAMES))))
    special = rng.random(rows.shape) < 0.35
    rows[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    rows[:, _P] = np.maximum(np.abs(rows[:, _P]), 1.0)
    return rows


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(4097, 1)  # crosses the expansion's row-block boundary
@example(5000, 2)
def test_fused_expansion_equals_every_declared_expression(n, seed):
    rows = _rows(n, seed)
    table = FeatureTable(rows)
    with np.errstate(over="ignore"):
        for include_context in (False, True):
            fused = expand_columns(rows, include_context)
            names = feature_names(include_context)
            assert fused.shape == (n, len(names)) and fused.flags.c_contiguous
            for j, name in enumerate(names):
                column = np.broadcast_to(FEATURE_EXPRESSIONS[name](table), (n,))
                assert (_bits(fused[:, j]) == _bits(column)).all(), name
            for i in range(min(n, 8)):
                f = FeatureInput(*rows[i].tolist())
                assert (_bits(feature_vector(f, include_context)) == _bits(fused[i])).all()
                scalar = [FEATURE_FUNCTIONS[name](f) for name in names]
                assert (_bits(scalar) == _bits(fused[i])).all()


def test_declaration_is_the_layout():
    """The names parse into the families the resource profiles split on."""
    assert INVERSE_P_FEATURES == {n for n in ALL_FEATURE_NAMES if n.endswith("/P")}
    assert len(INVERSE_P_FEATURES) == 7
    assert expand_columns(np.empty((0, len(COLUMN_NAMES))), True).shape == (
        0,
        len(ALL_FEATURE_NAMES),
    )
