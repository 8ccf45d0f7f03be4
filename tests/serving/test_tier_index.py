"""The tier index against the per-kind object-graph oracle, bit for bit.

:class:`~repro.core.packed.PackedModelBank` resolves a table's four
signature columns in one search and prices every covered ``(row, kind)``
pair in one pass.  For random stores and tables, every answer it feeds
equals the object graph's, compared as bytes: the meta rows and their model
calls, the fallback chain's values / answering models / fallbacks, resource
profiles, and the per-kind predictions the robustness evaluators read.

The generated cases include tables of 0, 1 and 5 000 rows, signature words
above 2**63 (the index searches their bits as int64), a word that two kinds
hold, a kind with no models, a model the bank cannot pack (which the store
refuses, typed, leaving itself unchanged), and an
op-subgraph model with all-zero coefficients scored on rows whose context
features (CL, D) are negative: the op-subgraph kind is 29 wide inside the
31-wide block, and its two pad terms must not flip the sign of a zero.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ModelNotTrainedError, ValidationError
from repro.core.combined import build_meta_matrix_reference, meta_matrix_and_calls
from repro.core.combined import predict_covered_reference
from repro.core.config import SPECIFICITY_ORDER, ModelKind
from repro.core.learned_model import LearnedCostModel
from repro.core.model_store import ModelStore
from repro.core.packed import predict_most_specific, resource_profiles_most_specific
from repro.core.robustness import store_predictions_by_kind
from repro.features.featurizer import FeatureInput
from repro.features.table import FeatureTable
from repro.plan.signatures import SignatureBundle
from tests.serving.test_packed_inference import _SIG_CARDINALITY, _fitted_model, _random_store

#: Signature index -> 64-bit word, shared by every kind, so a word names a
#: model in several kinds.  Odd words have the top bit set; the last three
#: are int64's largest (the index's end sentinel), 0 and uint64's largest.
_WORDS = np.random.default_rng(2024).integers(0, 2**63, size=12, dtype=np.uint64)
_WORDS[1::2] |= np.uint64(1 << 63)
_WORDS[-3:] = (2**63 - 1, 0, 2**64 - 1)
#: A word no table holds: keys the models the store refuses.
_UNUSED = 12345
_FALLBACK = 3.25


def _store(
    seed: int, empty: ModelKind | None, unpackable: ModelKind | None, zero_intercept: float
) -> ModelStore:
    """A random store over :data:`_WORDS`, plus the generated edge cases."""
    rng = np.random.default_rng(seed)
    store = ModelStore()
    for kind, by_index in _random_store(rng, coverage=0.6).models.items():
        if kind is not empty:
            for index, model in by_index.items():
                store.add(kind, int(_WORDS[index]), model)
    if empty is not ModelKind.OP_SUBGRAPH:
        # All-zero (-0.0) coefficients, a zero intercept and a mean below
        # every feature: each of its 29 terms, standardized or raw, is -0.0,
        # so its raw intercept and theta_0 are -0.0 too.
        zero = _fitted_model(rng, ModelKind.OP_SUBGRAPH)
        zero._net.coef_ = np.full_like(zero._net.coef_, -0.0)
        zero._net.intercept_ = zero_intercept
        zero._net._scaler.mean_ = np.full_like(zero._net._scaler.mean_, -1e30)
        store.add(ModelKind.OP_SUBGRAPH, int(_WORDS[0]), zero)
    if unpackable is not None:
        # An unfitted model, and a fitted one of the other width: refused at
        # the door, nothing added and the version unchanged.
        models, version = store.count(), store.version
        unfitted = LearnedCostModel(include_context=unpackable.uses_context_features)
        with pytest.raises(ModelNotTrainedError):
            store.add(unpackable, _UNUSED, unfitted)
        other = next(
            kind
            for kind in ModelKind
            if kind.uses_context_features != unpackable.uses_context_features
        )
        with pytest.raises(ValidationError):
            store.add(unpackable, _UNUSED, _fitted_model(np.random.default_rng(0), other))
        assert store.get(unpackable, _UNUSED) is None
        assert (store.count(), store.version) == (models, version)
    # The word two kinds hold is generated, not left to the draw: the first
    # two non-empty kinds in specificity order both hold word 1 (above
    # 2**63, and inside every kind's signature alphabet).
    shared = int(_WORDS[1])
    for kind in [kind for kind in SPECIFICITY_ORDER if kind is not empty][:2]:
        if shared not in store.models[kind]:
            store.add(kind, shared, _fitted_model(rng, kind))
    holders =[sum(int(word) in store.models[kind] for kind in ModelKind) for word in _WORDS]
    assert max(holders) >= 2, "some word must name a model in two kinds"
    return store


def _rows(seed: int, n: int) -> tuple[list[FeatureInput], list[SignatureBundle], FeatureTable]:
    rng = np.random.default_rng(seed)
    inputs = [
        FeatureInput(
            input_card=float(rng.uniform(1, 1e6)),
            base_card=float(rng.uniform(1, 1e6)),
            output_card=float(rng.uniform(0, 1e5)),
            avg_row_bytes=float(rng.uniform(8, 256)),
            partition_count=float(rng.integers(1, 64)),
            input_enc=float(rng.uniform(0, 1)),
            params_enc=float(rng.uniform(0, 1)),
            logical_count=float(rng.uniform(-20, 20)),
            depth=float(rng.choice([-3.0, -0.0, 0.0, 4.0])),
        )
        for _ in range(n)
    ]
    columns = [rng.integers(0, size, size=n) for size in _SIG_CARDINALITY.values()]
    bundles = [SignatureBundle(*(int(_WORDS[c[i]]) for c in columns)) for i in range(n)]
    return inputs, bundles, FeatureTable.from_inputs(inputs, bundles)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _check(store: ModelStore, inputs, bundles, table: FeatureTable) -> None:
    # Meta rows and calls: the per-kind object-graph groups are the oracle.
    rows, calls = meta_matrix_and_calls(store, table)
    reference_rows, reference_calls = meta_matrix_and_calls(store, table, reference=True)
    assert rows.tobytes() == reference_rows.tobytes()
    assert rows.tobytes() == build_meta_matrix_reference(store, table).tobytes()
    assert calls == reference_calls

    # Per-kind predictions, as the robustness evaluators read them.
    by_kind = store_predictions_by_kind(store, SimpleNamespace(to_table=lambda: table))
    for kind in ModelKind:
        mask, values = predict_covered_reference(store, table, kind)
        assert by_kind[kind][0].tobytes() == mask.tobytes()
        assert _bits(by_kind[kind][1]) == _bits(values)

    # The fallback chain: each row's most specific model, one row at a time.
    chain = [store.most_specific(bundle) for bundle in bundles]
    values, groups, fallbacks = predict_most_specific(store, table, _FALLBACK)
    expected = [
        _FALLBACK if best is None else best[1].predict_one(f) for best, f in zip(chain, inputs)
    ]
    assert _bits(values) == _bits(expected)
    answering = {(best[0], id(best[1])) for best in chain if best is not None}
    assert groups == len(answering)
    assert fallbacks == sum(best is None for best in chain)

    # Resource profiles: the object graph's raw-space reads, row by row.
    profiles, covered = resource_profiles_most_specific(store, table)
    assert covered == sum(best is not None for best in chain)
    for profile, best, f in zip(profiles, chain, inputs):
        if best is None:
            assert profile is None
        else:
            scalar = best[1].resource_profile(f)
            assert _bits([profile.theta_p, profile.theta_c, profile.theta_0]) == _bits(
                [scalar.theta_p, scalar.theta_c, scalar.theta_0]
            )


kinds_or_none = st.sampled_from((None, *SPECIFICITY_ORDER))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((0, 1, 2, 7, 40)),
    empty=kinds_or_none,
    unpackable=kinds_or_none,
    zero_intercept=st.sampled_from((0.0, -0.0)),
)
@settings(max_examples=40, deadline=None)
def test_tier_index_matches_the_object_graph(seed, n, empty, unpackable, zero_intercept):
    store = _store(seed, empty, unpackable, zero_intercept)
    _check(store, *_rows(seed + 1, n))


@pytest.mark.parametrize("zero_intercept", [0.0, -0.0])
def test_five_thousand_rows_price_in_blocks(zero_intercept):
    """5 000 rows make ~15 000 covered pairs: several scratch blocks."""
    store = _store(5, empty=ModelKind.OP_INPUT, unpackable=None, zero_intercept=zero_intercept)
    _check(store, *_rows(6, 5000))


def test_negative_context_rows_keep_the_sign_of_a_zero():
    """The pad hazard, pinned: the all-zero model's theta_0 is -0.0 on rows
    whose CL is negative and on rows whose CL is positive."""
    store = _store(9, empty=None, unpackable=None, zero_intercept=-0.0)
    inputs, bundles, _ = _rows(10, 400)
    keep = [i for i, b in enumerate(bundles) if b.strict == int(_WORDS[0])]
    inputs = [inputs[i] for i in keep]
    bundles = [bundles[i] for i in keep]
    assert {np.sign(f.logical_count) for f in inputs} == {-1.0, 1.0}
    table = FeatureTable.from_inputs(inputs, bundles)
    profiles, _ = resource_profiles_most_specific(store, table)
    assert all(np.signbit(profile.theta_0) for profile in profiles)
    _check(store, inputs, bundles, table)


def test_non_finite_context_never_reaches_a_29_wide_price():
    """A 29-wide model never reads CL or D, so an infinite CL or NaN D
    (tables priced with input validation off) cannot poison its price."""
    store = _store(11, empty=None, unpackable=None, zero_intercept=0.0)
    inputs, bundles, _ = _rows(12, 300)
    keep = [i for i, b in enumerate(bundles) if store.get(ModelKind.OP_SUBGRAPH, b.strict)]
    inputs = [replace(inputs[i], logical_count=np.inf, depth=np.nan) for i in keep]
    bundles = [bundles[i] for i in keep]
    table = FeatureTable.from_inputs(inputs, bundles)
    with np.errstate(invalid="ignore"):
        values, _, _ = predict_most_specific(store, table, _FALLBACK)
        mask, predictions = store_predictions_by_kind(
            store, SimpleNamespace(to_table=lambda: table)
        )[ModelKind.OP_SUBGRAPH]
    expected = [store.most_specific(b)[1].predict_one(f) for f, b in zip(inputs, bundles)]
    assert len(expected) and np.isfinite(expected).all()
    assert _bits(values) == _bits(expected)
    assert mask.all() and _bits(predictions) == _bits(expected)
